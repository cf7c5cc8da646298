//! `mscc` — the MSC compiler driver.
//!
//! Compiles a `.msc` stencil description to a C source package (plus
//! Makefile) for a target, optionally running the program functionally
//! and printing a simulated performance report:
//!
//! ```text
//! mscc stencil.msc                      # emit code for the file's target
//! mscc stencil.msc -o outdir            # choose the output directory
//! mscc stencil.msc --target matrix      # override the target
//! mscc stencil.msc --run                # execute functionally, print stats
//! mscc stencil.msc --simulate           # predicted time on the target model
//! mscc stencil.msc --stats              # static kernel statistics
//! mscc stencil.msc --autoschedule       # pick tiles/stream/tile_time automatically
//! mscc stencil.msc --run --dump out.grid  # save the final state (MSCGRID1 format)
//! mscc stencil.msc --profile            # run under tracing, print the profile table
//! mscc stencil.msc --trace out.json     # run under tracing, write chrome://tracing JSON
//! mscc stencil.msc --procs 2x2          # distributed run over a 2x2 process grid
//! mscc stencil.msc --procs 2x2 --trace out.json
//!                                       # ...stitched cross-rank trace + straggler report
//! mscc stencil.msc --procs 2x2 --chaos 42:drop=0.05,dup=0.02,corrupt=0.01
//!                                       # ...with seeded fault injection
//! mscc stencil.msc --procs 2x2 --chaos 1:kill=1@3 --checkpoint-every 2
//!                                       # kill a rank, restart from checkpoint
//! mscc bench --out BENCH_0006.json      # record the benchmark trajectory
//! mscc bench --diff OLD.json NEW.json   # exit nonzero on perf regression
//! mscc serve --workers 4                # run the mscd compile-and-run daemon
//! mscc submit stencil.msc --run         # send a program to a running mscd
//! ```
//!
//! `--profile` and `--trace` imply `--run`; both may be combined.
//! A source with an `mpi P Q [R]` clause runs (`--run`) over that process
//! grid; `--chaos` and `--checkpoint-every` imply a distributed run of any
//! source. The process grid is `--procs`, else the `mpi` clause, else
//! `2x1[x1...]`; every rank sweeps its sub-grid under the source's own
//! schedule, and the result is always verified bit-exactly against the
//! serial reference.

use msc::bench::suite;
use msc::comm::{run_distributed_resilient, FaultPlan, HeartbeatConfig, RunOptions};
use msc::core::analysis::StencilStats;
use msc::core::schedule::ExecPlan;
use msc::prelude::*;
use msc::trace::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// Grouped flag reference. Every flag the parser accepts must appear
/// here — `tests/mscc_cli.rs::help_documents_every_flag` enforces it.
const HELP: &str = "\
mscc — MSC stencil compiler driver

usage:
  mscc <file.msc> [options]    compile a stencil (and optionally run it)
  mscc check <file.msc> [options]  run the static stencil verifier only
  mscc lift <file.c> [options]  lift a restricted C loop nest to stencil IR
  mscc bench [options]         record or check the benchmark trajectory
  mscc top METRICS.jsonl [options]  live per-rank view of a metrics stream
  mscc serve [options]         run the mscd compile-and-run daemon
  mscc submit <file.msc> [options]  send a program to a running mscd

input / output:
  -o, --out DIR            output directory for the generated C package
      --target NAME        code generation target: sunway | matrix | cpu
      --dump PATH          save the final state to PATH (MSCGRID1 format)

execution:
      --run                execute functionally and print run statistics
      --exec-tier TIER     row evaluation tier: auto | interp | vm | specialized
                           (default auto — fastest applicable; every tier is
                           bit-identical to the interpreter)
      --simulate           print the predicted time on the target machine model
      --stats              print static kernel statistics
      --autoschedule       pick tiles/stream/tile_time automatically
      --pool-threads N     cap the persistent worker pool at N threads
                           (N >= 1). Default: width decided by the plan

distributed:
      --procs PxQ[xR]      run over a process grid (e.g. 2x2), verified
                           bit-exactly against the serial reference;
                           overrides the source's `mpi` clause, which is
                           what --run uses otherwise
      --chaos SEED:SPEC    seeded fault injection (drop=,dup=,delay=,
                           corrupt=, kill=RANK@N); implies distributed
      --checkpoint-every K write a checkpoint every K steps
      --checkpoint-dir DIR checkpoint directory (default: temp dir)
      --spare-ranks N      launch N hot-spare ranks; a dead rank is healed
                           online (spare adopts its subdomain from the
                           buddy snapshot) instead of restarting the
                           world; implies distributed
      --heartbeat-ms MS    liveness beacon interval in ms (failure
                           detection timeout is 4x MS; default 50);
                           implies distributed and the membership layer

observability:
      --profile            run under tracing; print the counter and latency-
                           histogram tables (distributed runs also print the
                           per-step straggler report)
      --trace OUT.json     run under tracing; write chrome://tracing JSON
                           (distributed runs stitch all ranks into one
                           timeline with send->recv flow arrows)
      --flight-dir DIR     dump the always-on flight recorder to DIR as JSON
                           when a communication fault or restart fires
      --metrics-file PATH  sample live metrics during the run: one JSONL
                           line per interval appended to PATH (schema
                           msc-metrics-v1) plus an OpenMetrics snapshot
                           atomically rewritten at PATH's .om sibling;
                           the stream is flushed on exit and on faults,
                           and the online stall detector raises alerts
      --metrics-interval-ms MS
                           sampling interval in ms (default 250;
                           requires --metrics-file)

top subcommand (mscc top):
      --once               render one snapshot and exit (no tail-follow)
      --strict             validate the stream while rendering: schema
                           tag, monotone seq and counters, well-formed
                           OpenMetrics sibling; exit nonzero on violation
      --interval-ms MS     redraw interval while following (default 500)

check subcommand (mscc check):
      --json               emit machine-readable JSON diagnostics on stdout
                           (exit code still reflects deny-level findings;
                           --target selects the capacity lints as above)

lift subcommand (mscc lift):
      --emit-msc           print the lifted program as `.msc` DSL source
      --run                execute the lifted program (serial reference)
                           and print run statistics
      --json               emit machine-readable JSON diagnostics on stdout
                           (same schema and deny-gated exit code as
                           `mscc check`; MSC-L5xx codes report lift
                           failures, and a successful lift is additionally
                           validated bit-for-bit against direct
                           interpretation of the C nest on every
                           execution tier)

serve subcommand (mscc serve):
      --socket PATH        Unix socket to listen on (default: mscd.sock in
                           the system temp directory)
      --workers N          job worker threads (default 2)
      --max-queue N        admission bound on queued jobs (default 16); a
                           full queue answers a typed busy/queue response
                           instead of blocking the client
      --tenant-quota N     per-tenant in-flight bound, queued + running
                           (default 4); at quota a tenant gets busy/quota
                           while other tenants still get through
      --metrics-dir DIR    give every job its own telemetry session sampled
                           into DIR/job_<id>.jsonl (+ OpenMetrics sibling)
      --pool-threads N     helper threads each worker pre-warms in its
                           persistent execution pool (0 = grow on demand)

submit subcommand (mscc submit):
      --socket PATH        daemon socket to connect to (same default)
      --tenant NAME        tenant identity for admission control
                           (default `default`)
      --run                also execute the program functionally and report
                           steps/tiles and this job's telemetry counters
      --target NAME        override the code generation target
      --sleep-ms MS        artificial delay before the job body (a load
                           knob for admission-control testing)
      --ping               liveness probe instead of a submission
      --stats              print service-wide counters instead of a
                           submission
      --shutdown           ask the daemon to finish queued jobs and exit

bench subcommand (mscc bench):
      --quick              small grids — CI smoke mode
      --out FILE           write the recording to FILE (default BENCH_0006.json)
      --validate FILE      schema-check a recording and exit
      --diff OLD NEW       compare two recordings; exit nonzero on regression
      --threshold PCT      time-metric regression threshold in percent (default 15)
      --counts-only        diff only deterministic count metrics
      --doctor IN OUT      write a 20%-slowed copy of IN (regression-gate self-test)

  -h, --help               show this help
";

struct Args {
    input: PathBuf,
    outdir: Option<PathBuf>,
    target: Option<Target>,
    run: bool,
    simulate: bool,
    stats: bool,
    autoschedule: bool,
    dump: Option<PathBuf>,
    profile: bool,
    trace: Option<PathBuf>,
    procs: Option<Vec<usize>>,
    chaos: Option<String>,
    checkpoint_every: usize,
    checkpoint_dir: Option<PathBuf>,
    spare_ranks: usize,
    heartbeat_ms: Option<u64>,
    flight_dir: Option<PathBuf>,
    pool_threads: Option<std::num::NonZeroUsize>,
    exec_tier: msc::exec::ExecTier,
    metrics_file: Option<PathBuf>,
    metrics_interval_ms: Option<u64>,
}

struct TopArgs {
    input: PathBuf,
    once: bool,
    strict: bool,
    interval_ms: u64,
}

struct BenchArgs {
    quick: bool,
    out: PathBuf,
    validate: Option<PathBuf>,
    diff: Option<(PathBuf, PathBuf)>,
    doctor: Option<(PathBuf, PathBuf)>,
    threshold: f64,
    counts_only: bool,
}

struct CheckArgs {
    input: PathBuf,
    json: bool,
    target: Option<Target>,
}

struct LiftArgs {
    input: PathBuf,
    emit_msc: bool,
    run: bool,
    json: bool,
}

struct ServeArgs {
    socket: Option<PathBuf>,
    workers: usize,
    max_queue: usize,
    tenant_quota: usize,
    metrics_dir: Option<PathBuf>,
    pool_threads: usize,
}

/// What a `mscc submit` invocation asks the daemon for.
enum SubmitOp {
    Job(PathBuf),
    Ping,
    Stats,
    Shutdown,
}

struct SubmitArgs {
    socket: Option<PathBuf>,
    op: SubmitOp,
    tenant: String,
    run: bool,
    target: Option<Target>,
    sleep_ms: u64,
}

enum Cli {
    Compile(Box<Args>),
    Check(CheckArgs),
    Lift(LiftArgs),
    Bench(BenchArgs),
    Top(TopArgs),
    Serve(ServeArgs),
    Submit(SubmitArgs),
    Help,
}

fn parse_cli() -> Result<Cli, String> {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("bench") {
        argv.next();
        return parse_bench_args(argv).map(Cli::Bench);
    }
    if argv.peek().map(String::as_str) == Some("check") {
        argv.next();
        return parse_check_args(argv).map(Cli::Check);
    }
    if argv.peek().map(String::as_str) == Some("lift") {
        argv.next();
        return parse_lift_args(argv).map(Cli::Lift);
    }
    if argv.peek().map(String::as_str) == Some("top") {
        argv.next();
        return parse_top_args(argv).map(Cli::Top);
    }
    if argv.peek().map(String::as_str) == Some("serve") {
        argv.next();
        return parse_serve_args(argv).map(Cli::Serve);
    }
    if argv.peek().map(String::as_str) == Some("submit") {
        argv.next();
        return parse_submit_args(argv).map(Cli::Submit);
    }
    parse_args(argv)
}

fn parse_serve_args(mut argv: impl Iterator<Item = String>) -> Result<ServeArgs, String> {
    let mut s = ServeArgs {
        socket: None,
        workers: 2,
        max_queue: 16,
        tenant_quota: 4,
        metrics_dir: None,
        pool_threads: 0,
    };
    let count = |argv: &mut dyn Iterator<Item = String>, flag: &str| {
        argv.next()
            .ok_or(format!("missing count after {flag}"))?
            .parse::<usize>()
            .map_err(|_| format!("bad count after {flag}"))
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--socket" => {
                s.socket = Some(PathBuf::from(
                    argv.next().ok_or("missing path after --socket")?,
                ))
            }
            "--workers" => {
                s.workers = count(&mut argv, "--workers")?;
                if s.workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--max-queue" => s.max_queue = count(&mut argv, "--max-queue")?,
            "--tenant-quota" => s.tenant_quota = count(&mut argv, "--tenant-quota")?,
            "--metrics-dir" => {
                s.metrics_dir = Some(PathBuf::from(
                    argv.next().ok_or("missing directory after --metrics-dir")?,
                ))
            }
            "--pool-threads" => s.pool_threads = count(&mut argv, "--pool-threads")?,
            "-h" | "--help" => return Err("__help__".into()),
            other => return Err(format!("unexpected serve argument `{other}`")),
        }
    }
    Ok(s)
}

fn parse_submit_args(mut argv: impl Iterator<Item = String>) -> Result<SubmitArgs, String> {
    let mut input = None;
    let mut socket = None;
    let mut tenant = "default".to_string();
    let mut run = false;
    let mut target = None;
    let mut sleep_ms = 0u64;
    let (mut ping, mut stats, mut shutdown) = (false, false, false);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--socket" => {
                socket = Some(PathBuf::from(
                    argv.next().ok_or("missing path after --socket")?,
                ))
            }
            "--tenant" => tenant = argv.next().ok_or("missing name after --tenant")?,
            "--run" => run = true,
            "--target" => {
                let t = argv.next().ok_or("missing target name")?;
                target = Some(parse_target(&t)?);
            }
            "--sleep-ms" => {
                sleep_ms = argv
                    .next()
                    .ok_or("missing interval after --sleep-ms")?
                    .parse()
                    .map_err(|_| "bad interval after --sleep-ms".to_string())?;
            }
            "--ping" => ping = true,
            "--stats" => stats = true,
            "--shutdown" => shutdown = true,
            "-h" | "--help" => return Err("__help__".into()),
            other if input.is_none() && !other.starts_with('-') => {
                input = Some(PathBuf::from(other))
            }
            other => return Err(format!("unexpected submit argument `{other}`")),
        }
    }
    let op = match (ping, stats, shutdown, input) {
        (true, false, false, None) => SubmitOp::Ping,
        (false, true, false, None) => SubmitOp::Stats,
        (false, false, true, None) => SubmitOp::Shutdown,
        (false, false, false, Some(file)) => SubmitOp::Job(file),
        (false, false, false, None) => {
            return Err("no input file (try --ping, --stats, --shutdown, or --help)".into())
        }
        _ => return Err("--ping/--stats/--shutdown are exclusive and take no file".into()),
    };
    Ok(SubmitArgs {
        socket,
        op,
        tenant,
        run,
        target,
        sleep_ms,
    })
}

fn parse_top_args(mut argv: impl Iterator<Item = String>) -> Result<TopArgs, String> {
    let mut input = None;
    let mut once = false;
    let mut strict = false;
    let mut interval_ms = 500u64;
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--once" => once = true,
            "--strict" => strict = true,
            "--interval-ms" => {
                interval_ms = argv
                    .next()
                    .ok_or("missing interval after --interval-ms")?
                    .parse()
                    .map_err(|_| "bad interval after --interval-ms".to_string())?;
                if interval_ms == 0 {
                    return Err("--interval-ms must be at least 1".into());
                }
            }
            "-h" | "--help" => return Err("__help__".into()),
            other if input.is_none() && !other.starts_with('-') => {
                input = Some(PathBuf::from(other))
            }
            other => return Err(format!("unexpected top argument `{other}`")),
        }
    }
    Ok(TopArgs {
        input: input.ok_or("no metrics file (try --help)")?,
        once,
        strict,
        interval_ms,
    })
}

fn parse_check_args(mut argv: impl Iterator<Item = String>) -> Result<CheckArgs, String> {
    let mut input = None;
    let mut json = false;
    let mut target = None;
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--json" => json = true,
            "--target" => {
                let t = argv.next().ok_or("missing target name")?;
                target = Some(parse_target(&t)?);
            }
            "-h" | "--help" => return Err("__help__".into()),
            other if input.is_none() && !other.starts_with('-') => {
                input = Some(PathBuf::from(other))
            }
            other => return Err(format!("unexpected check argument `{other}`")),
        }
    }
    Ok(CheckArgs {
        input: input.ok_or("no input file (try --help)")?,
        json,
        target,
    })
}

fn parse_lift_args(mut argv: impl Iterator<Item = String>) -> Result<LiftArgs, String> {
    let mut input = None;
    let mut emit_msc = false;
    let mut run = false;
    let mut json = false;
    for a in argv.by_ref() {
        match a.as_str() {
            "--emit-msc" => emit_msc = true,
            "--run" => run = true,
            "--json" => json = true,
            "-h" | "--help" => return Err("__help__".into()),
            other if input.is_none() && !other.starts_with('-') => {
                input = Some(PathBuf::from(other))
            }
            other => return Err(format!("unexpected lift argument `{other}`")),
        }
    }
    Ok(LiftArgs {
        input: input.ok_or("no input file (try --help)")?,
        emit_msc,
        run,
        json,
    })
}

fn parse_target(name: &str) -> Result<Target, String> {
    match name {
        "sunway" => Ok(Target::SunwayCG),
        "matrix" => Ok(Target::Matrix),
        "cpu" => Ok(Target::Cpu),
        other => Err(format!("unknown target `{other}`")),
    }
}

fn parse_bench_args(mut argv: impl Iterator<Item = String>) -> Result<BenchArgs, String> {
    let mut b = BenchArgs {
        quick: false,
        out: PathBuf::from(suite::BENCH_FILE),
        validate: None,
        diff: None,
        doctor: None,
        threshold: suite::DEFAULT_THRESHOLD,
        counts_only: false,
    };
    let path = |argv: &mut dyn Iterator<Item = String>, flag: &str| {
        argv.next()
            .map(PathBuf::from)
            .ok_or(format!("missing path after {flag}"))
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--quick" => b.quick = true,
            "--out" => b.out = path(&mut argv, "--out")?,
            "--validate" => b.validate = Some(path(&mut argv, "--validate")?),
            "--diff" => b.diff = Some((path(&mut argv, "--diff")?, path(&mut argv, "--diff")?)),
            "--doctor" => {
                b.doctor = Some((path(&mut argv, "--doctor")?, path(&mut argv, "--doctor")?))
            }
            "--threshold" => {
                let pct: f64 = argv
                    .next()
                    .ok_or("missing percent after --threshold")?
                    .parse()
                    .map_err(|_| "bad percent after --threshold".to_string())?;
                if !(0.0..=100.0).contains(&pct) {
                    return Err("--threshold must be within 0..=100".into());
                }
                b.threshold = pct / 100.0;
            }
            "--counts-only" => b.counts_only = true,
            "-h" | "--help" => return Err("__help__".into()),
            other => return Err(format!("unexpected bench argument `{other}`")),
        }
    }
    Ok(b)
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut input = None;
    let mut outdir = None;
    let mut target = None;
    let mut run = false;
    let mut simulate = false;
    let mut stats = false;
    let mut autoschedule = false;
    let mut dump = None;
    let mut profile = false;
    let mut trace = None;
    let mut procs = None;
    let mut chaos = None;
    let mut checkpoint_every = 0usize;
    let mut checkpoint_dir = None;
    let mut spare_ranks = 0usize;
    let mut heartbeat_ms = None;
    let mut flight_dir = None;
    let mut pool_threads = None;
    let mut exec_tier = msc::exec::ExecTier::Auto;
    let mut metrics_file = None;
    let mut metrics_interval_ms = None;
    while let Some(a) = argv.next() {
        match a.as_str() {
            "-o" | "--out" => {
                outdir = Some(PathBuf::from(
                    argv.next().ok_or("missing directory after -o")?,
                ))
            }
            "--target" => {
                let t = argv.next().ok_or("missing target name")?;
                target = Some(parse_target(&t)?);
            }
            "--run" => run = true,
            "--simulate" => simulate = true,
            "--stats" => stats = true,
            "--autoschedule" => autoschedule = true,
            "--dump" => {
                dump = Some(PathBuf::from(
                    argv.next().ok_or("missing path after --dump")?,
                ))
            }
            "--profile" => profile = true,
            "--trace" => {
                trace = Some(PathBuf::from(
                    argv.next().ok_or("missing path after --trace")?,
                ))
            }
            "--procs" => {
                let spec = argv.next().ok_or("missing process grid after --procs")?;
                let grid: Result<Vec<usize>, _> =
                    spec.split('x').map(|p| p.trim().parse::<usize>()).collect();
                let grid = grid.map_err(|_| format!("bad process grid `{spec}` (try 2x2)"))?;
                if grid.is_empty() || grid.contains(&0) {
                    return Err(format!("bad process grid `{spec}`"));
                }
                procs = Some(grid);
            }
            "--chaos" => chaos = Some(argv.next().ok_or("missing spec after --chaos")?),
            "--checkpoint-every" => {
                checkpoint_every = argv
                    .next()
                    .ok_or("missing step count after --checkpoint-every")?
                    .parse()
                    .map_err(|_| "bad step count after --checkpoint-every".to_string())?;
            }
            "--checkpoint-dir" => {
                checkpoint_dir = Some(PathBuf::from(
                    argv.next()
                        .ok_or("missing directory after --checkpoint-dir")?,
                ))
            }
            "--spare-ranks" => {
                spare_ranks = argv
                    .next()
                    .ok_or("missing rank count after --spare-ranks")?
                    .parse()
                    .map_err(|_| "bad rank count after --spare-ranks".to_string())?;
            }
            "--heartbeat-ms" => {
                let ms: u64 = argv
                    .next()
                    .ok_or("missing interval after --heartbeat-ms")?
                    .parse()
                    .map_err(|_| "bad interval after --heartbeat-ms".to_string())?;
                if ms == 0 {
                    return Err("--heartbeat-ms must be at least 1".into());
                }
                heartbeat_ms = Some(ms);
            }
            "--flight-dir" => {
                flight_dir = Some(PathBuf::from(
                    argv.next().ok_or("missing directory after --flight-dir")?,
                ))
            }
            "--metrics-file" => {
                metrics_file = Some(PathBuf::from(
                    argv.next().ok_or("missing path after --metrics-file")?,
                ))
            }
            "--metrics-interval-ms" => {
                metrics_interval_ms = Some(
                    argv.next()
                        .ok_or("missing interval after --metrics-interval-ms")?
                        .parse::<u64>()
                        .map_err(|_| "bad interval after --metrics-interval-ms".to_string())?,
                );
            }
            "--exec-tier" => {
                let t = argv.next().ok_or("missing tier after --exec-tier")?;
                exec_tier = msc::exec::ExecTier::parse(&t).ok_or(format!(
                    "unknown exec tier `{t}` (try auto, interp, vm, specialized)"
                ))?;
            }
            "--pool-threads" => {
                let n: usize = argv
                    .next()
                    .ok_or("missing thread count after --pool-threads")?
                    .parse()
                    .map_err(|_| "bad thread count after --pool-threads".to_string())?;
                pool_threads = Some(
                    std::num::NonZeroUsize::new(n).ok_or("--pool-threads must be at least 1")?,
                );
            }
            "-h" | "--help" => return Ok(Cli::Help),
            other if input.is_none() && !other.starts_with('-') => {
                input = Some(PathBuf::from(other))
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if metrics_interval_ms.is_some() && metrics_file.is_none() {
        return Err("--metrics-interval-ms requires --metrics-file".into());
    }
    Ok(Cli::Compile(Box::new(Args {
        input: input.ok_or("no input file (try --help)")?,
        outdir,
        target,
        // Tracing flags are about observing a run, so they imply one.
        run: run || profile || trace.is_some(),
        simulate,
        stats,
        autoschedule,
        dump,
        profile,
        trace,
        procs,
        chaos,
        checkpoint_every,
        checkpoint_dir,
        spare_ranks,
        heartbeat_ms,
        flight_dir,
        pool_threads,
        exec_tier,
        metrics_file,
        metrics_interval_ms,
    })))
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(e) if e == "__help__" => {
            print!("{HELP}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("mscc: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cli {
        Cli::Help => {
            print!("{HELP}");
            return ExitCode::SUCCESS;
        }
        Cli::Compile(args) => drive(*args),
        Cli::Check(args) => drive_check(args),
        Cli::Lift(args) => drive_lift(args),
        Cli::Bench(args) => drive_bench(args),
        Cli::Top(args) => drive_top(args),
        Cli::Serve(args) => drive_serve(args),
        Cli::Submit(args) => drive_submit(args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mscc: {e}");
            ExitCode::FAILURE
        }
    }
}

fn load_recording(path: &PathBuf) -> Result<Json, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()).into())
}

fn drive_bench(args: BenchArgs) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(path) = &args.validate {
        let doc = load_recording(path)?;
        suite::validate(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "{}: valid trajectory recording (schema v{})",
            path.display(),
            suite::SCHEMA_VERSION
        );
        return Ok(());
    }
    if let Some((old_path, new_path)) = &args.diff {
        let old = load_recording(old_path)?;
        let new = load_recording(new_path)?;
        let regs = suite::diff(&old, &new, args.threshold, args.counts_only)?;
        if regs.is_empty() {
            println!(
                "no regressions: {} vs {} (threshold {:.0}%{})",
                old_path.display(),
                new_path.display(),
                args.threshold * 100.0,
                if args.counts_only {
                    ", counts only"
                } else {
                    ""
                }
            );
            return Ok(());
        }
        for r in &regs {
            eprintln!("regression: {r}");
        }
        return Err(format!("{} regression(s) found", regs.len()).into());
    }
    if let Some((input, out)) = &args.doctor {
        let doc = load_recording(input)?;
        suite::validate(&doc).map_err(|e| format!("{}: {e}", input.display()))?;
        // End-to-end resilience self-test: kill a rank mid-run and demand
        // a bit-exact online heal before certifying the rig healthy.
        let smoke = suite::recovery_smoke()?;
        println!(
            "recovery smoke: {} recoveries, {} restarts, {} buddy bytes; \
             detection latency p50 {:.1} us / p99 {:.1} us",
            smoke.recoveries,
            smoke.restarts,
            smoke.buddy_bytes,
            smoke.detect_p50_ns as f64 / 1e3,
            smoke.detect_p99_ns as f64 / 1e3,
        );
        // Observability must stay near-free: gate the metrics sampler's
        // wall-clock cost on the run it observes.
        let so = suite::sampler_overhead()?;
        println!(
            "sampler overhead: {:.1} ms bare vs {:.1} ms sampled at 100 ms \
             ({} sample(s), +{:.2}% wall, budget {:.0}%)",
            so.base_ns as f64 / 1e6,
            so.sampled_ns as f64 / 1e6,
            so.samples,
            so.overhead_frac * 100.0,
            suite::SAMPLER_OVERHEAD_BUDGET * 100.0,
        );
        if !so.within_budget {
            return Err(format!(
                "metrics sampler overhead {:.2}% exceeds the {:.0}% budget",
                so.overhead_frac * 100.0,
                suite::SAMPLER_OVERHEAD_BUDGET * 100.0
            )
            .into());
        }
        let slowed = suite::scale_times(&doc, 1.2);
        std::fs::write(out, format!("{slowed}\n"))
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        println!(
            "wrote 20%-slowed copy of {} to {} (regression-gate self-test input)",
            input.display(),
            out.display()
        );
        return Ok(());
    }
    let doc = suite::run_suite(args.quick)?;
    suite::validate(&doc).map_err(|e| format!("recorded document invalid: {e}"))?;
    std::fs::write(&args.out, format!("{doc}\n"))
        .map_err(|e| format!("cannot write {}: {e}", args.out.display()))?;
    let cases = doc
        .get("cases")
        .and_then(Json::as_arr)
        .map_or(0, |c| c.len());
    println!(
        "recorded {} benchmark case(s) to {} (schema v{}, {} mode)",
        cases,
        args.out.display(),
        suite::SCHEMA_VERSION,
        if args.quick { "quick" } else { "full" }
    );
    Ok(())
}

/// `mscc top`: tail-follow a sampler JSONL stream and redraw a per-rank
/// table (step rate, halo wait, steals, recoveries, last alert). With
/// `--once` it renders a single snapshot — the mode CI uses together
/// with `--strict`, which re-validates the whole stream and its
/// OpenMetrics sibling on every pass.
fn drive_top(args: TopArgs) -> Result<(), Box<dyn std::error::Error>> {
    use msc::top;
    let mut last_rendered = String::new();
    // In --once mode a read can race the sampler mid-append; retry a few
    // times before concluding the stream really has no complete samples.
    let mut once_retries = 50u32;
    loop {
        let read = top::read_stream(&args.input, args.strict)?;
        if args.strict {
            top::strict_check_stream(&args.input, &read.docs)?;
        }
        if args.once && read.docs.is_empty() && read.partial_tail && once_retries > 0 {
            once_retries -= 1;
            std::thread::sleep(std::time::Duration::from_millis(10));
            continue;
        }
        let rendered = top::render_top(&args.input, &read.docs);
        if rendered != last_rendered {
            if !args.once {
                // Home + clear: redraw in place while following.
                print!("\x1b[H\x1b[2J");
            }
            print!("{rendered}");
            last_rendered = rendered;
        }
        if args.once {
            if read.docs.is_empty() {
                return Err(format!("{}: no complete samples yet", args.input.display()).into());
            }
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(args.interval_ms));
    }
}

/// `mscc serve`: run the mscd daemon in the foreground until a wire
/// `shutdown` request arrives (queued jobs finish first).
fn drive_serve(args: ServeArgs) -> Result<(), Box<dyn std::error::Error>> {
    use msc::service::{Daemon, ServiceConfig};
    let defaults = ServiceConfig::default();
    let cfg = ServiceConfig {
        socket: args.socket.unwrap_or(defaults.socket),
        workers: args.workers,
        max_queue: args.max_queue,
        tenant_quota: args.tenant_quota,
        metrics_dir: args.metrics_dir,
        pool_threads: args.pool_threads,
    };
    let metrics = cfg
        .metrics_dir
        .as_ref()
        .map(|d| format!(", metrics under {}", d.display()))
        .unwrap_or_default();
    let daemon = Daemon::start(cfg)?;
    println!(
        "mscd listening on {} ({} worker(s), queue depth {}, {} job(s)/tenant{metrics})",
        daemon.socket().display(),
        daemon.stats().workers,
        args.max_queue,
        args.tenant_quota,
    );
    let stats = daemon.join();
    println!(
        "mscd exiting: {} done, {} denied, {} failed, {} rejected; compile cache {} hit(s) / {} miss(es)",
        stats.jobs_done,
        stats.jobs_denied,
        stats.jobs_failed,
        stats.jobs_rejected,
        stats.cache_hits,
        stats.cache_misses,
    );
    Ok(())
}

/// `mscc submit`: one synchronous request to a running mscd. Exit code
/// is nonzero for denied, busy, and failed jobs — scripts can gate on it.
fn drive_submit(args: SubmitArgs) -> Result<(), Box<dyn std::error::Error>> {
    use msc::service::{Client, Request, Response, ServiceConfig, Submission};
    let socket = args.socket.unwrap_or(ServiceConfig::default().socket);
    let mut client = Client::connect(&socket)?;
    let request = match &args.op {
        SubmitOp::Ping => Request::Ping,
        SubmitOp::Stats => Request::Stats,
        SubmitOp::Shutdown => Request::Shutdown,
        SubmitOp::Job(file) => {
            let source = std::fs::read_to_string(file)
                .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
            Request::Submit(Submission {
                tenant: args.tenant.clone(),
                source,
                target: args.target,
                run: args.run,
                sleep_ms: args.sleep_ms,
            })
        }
    };
    match client.call(&request)? {
        Response::Pong { version, jobs_done } => {
            println!("mscd alive: protocol v{version}, {jobs_done} job(s) done");
        }
        Response::Stats(st) => {
            println!(
                "jobs: {} done, {} denied, {} failed, {} rejected; queue {} deep, \
                 {} running on {} worker(s); compile cache {} hit(s) / {} miss(es)",
                st.jobs_done,
                st.jobs_denied,
                st.jobs_failed,
                st.jobs_rejected,
                st.queue_depth,
                st.running,
                st.workers,
                st.cache_hits,
                st.cache_misses,
            );
        }
        Response::ShuttingDown => println!("mscd is shutting down (queued jobs finish first)"),
        Response::Done(d) => {
            println!(
                "job {}: compiled `{}` for {} ({} LoC, {:?}){}",
                d.job,
                d.program,
                d.target,
                d.loc,
                d.files,
                if d.cache_hit { " [cache hit]" } else { "" },
            );
            if let (Some(steps), Some(tiles)) = (d.steps, d.tiles) {
                println!("job {}: ran {steps} step(s), {tiles} tile(s)", d.job);
            }
            if !d.counters.is_empty() {
                let list: Vec<String> =
                    d.counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
                println!("job {}: counters {}", d.job, list.join(" "));
            }
            if let Some(path) = &d.metrics_path {
                println!("job {}: metrics stream {path}", d.job);
            }
        }
        Response::Denied { program, report } => {
            // Surface each structured diagnostic the way `mscc check`
            // renders them, then fail.
            let diags = report.get("diagnostics").and_then(Json::as_arr);
            for d in diags.into_iter().flatten() {
                let code = d.get("code").and_then(Json::as_str).unwrap_or("?");
                let msg = d.get("message").and_then(Json::as_str).unwrap_or("");
                eprintln!("{code}: {msg}");
            }
            return Err(format!("daemon denied `{program}` (deny-level lints)").into());
        }
        Response::Busy {
            reason,
            depth,
            limit,
        } => {
            return Err(format!(
                "daemon busy ({}): {depth} of {limit} slot(s) taken; resubmit later",
                reason.as_str()
            )
            .into());
        }
        Response::Error { message } => return Err(format!("job failed: {message}").into()),
    }
    Ok(())
}

/// `mscc check`: parse without the builder's hard halo/window validation
/// so *every* defect surfaces as a structured lint, then run the
/// verifier. Exit code is nonzero iff a deny-level diagnostic fired.
fn drive_check(args: CheckArgs) -> Result<(), Box<dyn std::error::Error>> {
    let source = std::fs::read_to_string(&args.input)
        .map_err(|e| format!("cannot read {}: {e}", args.input.display()))?;
    let parsed = msc::core::parse::parse_unchecked(&source)?;
    let target = args.target.or(parsed.target);
    let report = msc::lint::lint_program(&parsed.program, target);
    if args.json {
        println!("{}", report.to_json());
    } else if report.is_clean() {
        println!(
            "lint clean: `{}` (halo, window, race, capacity; target {})",
            parsed.program.name,
            target.map_or("none", Target::as_str)
        );
    } else {
        print!("{}", report.render());
    }
    if report.has_deny() {
        return Err(format!(
            "{} deny-level lint(s) in `{}`",
            report.deny_count(),
            parsed.program.name
        )
        .into());
    }
    Ok(())
}

/// `mscc lift`: statically lift a restricted C loop nest into the
/// stencil IR, run the full verifier over the recovered program, and —
/// when it comes back clean — validate the translation bit-for-bit
/// against direct interpretation of the original nest on every
/// execution tier. Exit code is nonzero iff a deny-level diagnostic
/// fired (MSC-L5xx lift failures included).
fn drive_lift(args: LiftArgs) -> Result<(), Box<dyn std::error::Error>> {
    let source = std::fs::read_to_string(&args.input)
        .map_err(|e| format!("cannot read {}: {e}", args.input.display()))?;
    let fallback = args
        .input
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("lifted");
    let outcome = msc::lift::lift_source(&source, fallback);
    let (mut report, lifted) = (outcome.report, outcome.lifted);
    let mut validation = None;
    if let Some(lifted) = &lifted {
        if !report.has_deny() {
            match msc::lift::validate(lifted, &msc::lift::DEFAULT_SEEDS) {
                Ok(v) => validation = Some(v),
                Err(e) => report.push(e.to_diagnostic()),
            }
        }
    }
    let name = lifted
        .as_ref()
        .map_or(fallback, |l| l.program.name.as_str())
        .to_string();
    if args.json {
        println!("{}", report.to_json());
    } else if report.is_clean() {
        let v = validation
            .as_ref()
            .expect("clean lift reports always carry a validation outcome");
        println!(
            "lift clean: `{name}` validated bit-for-bit on {} seed(s) x {} tier(s) ({} cells compared)",
            v.seeds.len(),
            v.tiers,
            v.cells_compared
        );
    } else {
        print!("{}", report.render());
    }
    if report.has_deny() {
        return Err(format!(
            "{} deny-level lint(s) lifting `{name}`",
            report.deny_count()
        )
        .into());
    }
    let lifted = lifted.expect("a deny-free lift report implies a lifted program");
    if args.emit_msc {
        print!("{}", msc::core::parse::to_msc_source(&lifted.program, None));
    }
    if args.run {
        let grid = &lifted.program.grid;
        let init: msc::exec::Grid<f64> = msc::exec::Grid::random(&grid.shape, &grid.halo, 42);
        let (out, stats) = msc::exec::run_program_tier(
            &lifted.program,
            &msc::exec::driver::Executor::Reference,
            &init,
            msc::exec::Boundary::Dirichlet,
            msc::exec::ExecTier::Auto,
        )?;
        println!(
            "ran `{name}`: {} step(s), {} tile(s), interior sum {:.6e}",
            stats.steps,
            stats.tiles_executed,
            out.interior_sum()
        );
    }
    Ok(())
}

fn drive(args: Args) -> Result<(), Box<dyn std::error::Error>> {
    let source = std::fs::read_to_string(&args.input)
        .map_err(|e| format!("cannot read {}: {e}", args.input.display()))?;
    let parsed = msc::core::parse::parse_unchecked(&source)?;
    let mut program = parsed.program;
    let target = args.target.or(parsed.target).unwrap_or(Target::Cpu);

    // The lint gate runs before anything else: deny-level findings stop
    // the build with every defect listed (the library entry points
    // re-check, so this is also the user-facing error path), and
    // warnings print to stderr without failing.
    let lint = msc::lint::lint_program(&program, Some(target));
    if lint.has_deny() {
        return Err(format!("lint rejected `{}`:\n{}", program.name, lint.render()).into());
    }
    if !lint.is_clean() {
        eprint!("{}", lint.render());
    }

    // Live telemetry: a metrics-sampled run gets its own session hub so
    // the sampler observes exactly this invocation. Installed before the
    // flight-dir handling below, which then scopes to the same session.
    let mut sampler = None;
    let mut hub_guard = None;
    let session_hub = if let Some(path) = &args.metrics_file {
        let cfg =
            msc::trace::SamplerConfig::from_millis(args.metrics_interval_ms.unwrap_or(250), path)?;
        let hub = msc::trace::TelemetryHub::new();
        hub.set_enabled(true);
        hub_guard = Some(msc::trace::install_thread_hub(Arc::clone(&hub)));
        sampler = Some(
            msc::trace::Sampler::start(Arc::clone(&hub), cfg)
                .map_err(|e| format!("cannot start metrics sampler: {e}"))?,
        );
        Some(hub)
    } else {
        None
    };
    let _hub_guard = hub_guard;

    if let Some(dir) = &args.flight_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        msc::trace::set_flight_dump_dir(Some(dir.clone()));
    }

    if let Some(n) = args.pool_threads {
        msc::exec::pool::set_pool_threads(n);
    }

    println!(
        "compiled `{}`: {}D grid {:?}, {} kernels, window {}, {} timesteps, target {}",
        program.name,
        program.grid.ndim(),
        program.grid.shape,
        program.stencil.kernels.len(),
        program.stencil.time_window(),
        program.timesteps,
        target.as_str()
    );

    if args.autoschedule {
        let machine = match target {
            Target::SunwayCG => msc::machine::presets::sunway_cg(),
            Target::Matrix => msc::machine::presets::matrix_processor(),
            Target::Cpu => msc::machine::presets::xeon_server(),
        };
        let stats = StencilStats::of(&program.stencil, program.grid.dtype)?;
        let auto = msc::tune::auto_schedule(
            &program.grid.shape,
            &stats,
            &program.stencil.reach(),
            program.stencil.kernels[0].points(),
            &machine,
            target,
            if program.grid.dtype == DType::F32 {
                Precision::Fp32
            } else {
                Precision::Fp64
            },
        )?;
        for d in &auto.decisions {
            println!("autoschedule: {d}");
        }
        println!(
            "autoschedule: selected tile {:?}, stream {}, tile_time {} ({:.3} ms/step predicted)",
            auto.schedule.tile_factors,
            auto.schedule.double_buffer,
            auto.schedule.time_tile,
            auto.predicted_s * 1e3
        );
        for k in &mut program.stencil.kernels {
            k.schedule = auto.schedule.clone();
        }
    }

    if args.stats {
        let dtype = program.grid.dtype;
        let s = StencilStats::of(&program.stencil, dtype)?;
        println!(
            "per point: {} reads ({} B), {} B written, {} flops; reach {:?}",
            s.points,
            s.read_bytes,
            s.write_bytes,
            s.ops(),
            program.stencil.reach()
        );
    }

    if args.simulate {
        let machine = match target {
            Target::SunwayCG => msc::machine::presets::sunway_cg(),
            Target::Matrix => msc::machine::presets::matrix_processor(),
            Target::Cpu => msc::machine::presets::xeon_server(),
        };
        let sched = effective_schedule(&program, target);
        let plan = ExecPlan::lower(&sched, program.grid.ndim(), &program.grid.shape)?;
        let stats = StencilStats::of(&program.stencil, program.grid.dtype)?;
        let rep = simulate_step(
            &StepInputs {
                stats,
                reach: program.stencil.reach(),
                plan: &plan,
                prec: if program.grid.dtype == DType::F32 {
                    Precision::Fp32
                } else {
                    Precision::Fp64
                },
            },
            &machine,
        );
        println!(
            "simulated on {}: {:.3} ms/step, {:.1} GFlop/s, {:?}-bound (OI {:.2} F/B)",
            machine.name,
            rep.time_s * 1e3,
            rep.gflops(),
            rep.bound,
            rep.oi_dram
        );
    }

    // A source that names an `mpi` grid is a distributed program; any of
    // the distributed flags makes one of any source.
    let distributed = args.procs.is_some()
        || (args.run && program.mpi_grid.is_some())
        || args.chaos.is_some()
        || args.checkpoint_every > 0
        || args.spare_ranks > 0
        || args.heartbeat_ms.is_some();
    if distributed {
        let ndim = program.grid.ndim();
        let procs = match (&args.procs, &program.mpi_grid) {
            (Some(p), _) if p.len() != ndim => {
                return Err(
                    format!("--procs has {} dims but the grid is {}D", p.len(), ndim).into(),
                )
            }
            (Some(p), _) | (None, Some(p)) => p.clone(),
            (None, None) => {
                let mut p = vec![1; ndim];
                p[0] = 2;
                p
            }
        };
        let mut opts = RunOptions {
            tier: args.exec_tier,
            hub: session_hub.clone(),
            ..RunOptions::default()
        };
        if let Some(spec) = &args.chaos {
            opts.chaos = Some(Arc::new(FaultPlan::parse(spec)?));
        }
        if args.checkpoint_every > 0 {
            let dir = args.checkpoint_dir.clone().unwrap_or_else(|| {
                std::env::temp_dir().join(format!("mscc_ckpt_{}", program.name))
            });
            // Snapshots from an earlier invocation must never be resumed.
            let _ = std::fs::remove_dir_all(&dir);
            opts.checkpoint_dir = Some(dir);
            opts.checkpoint_every = args.checkpoint_every;
        }
        opts.spare_ranks = args.spare_ranks;
        if let Some(ms) = args.heartbeat_ms {
            opts.heartbeat = Some(HeartbeatConfig::from_millis(ms)?);
        }
        if opts.spare_ranks > 0 || opts.heartbeat.is_some() {
            let hb = opts.heartbeat.clone().unwrap_or_default();
            println!(
                "resilience policy: {} spare rank(s), heartbeat every {} ms, \
                 failure detection after {} ms, keeping {} buddy generation(s)",
                opts.spare_ranks,
                hb.every.as_millis(),
                hb.detect.as_millis(),
                opts.checkpoint_keep,
            );
        }
        let tracing = args.profile || args.trace.is_some();
        if tracing {
            msc::trace::reset();
            msc::trace::set_enabled(true);
        }
        let init: Grid<f64> = Grid::random(&program.grid.shape, &program.grid.halo, 42);
        let sched = effective_schedule(&program, target);
        let t0 = std::time::Instant::now();
        let (out, stats) = run_distributed_resilient(
            &program,
            &procs,
            &init,
            Boundary::Dirichlet,
            &opts,
            // Every rank sweeps its sub-grid under the program's own
            // schedule; one that does not fit there gives way to halves.
            |sub| {
                ExecPlan::lower(&sched, sub.len(), sub).or_else(|e| {
                    println!(
                        "note: the schedule does not lower over the {sub:?} sub-grid ({e}); \
                         each rank tiles its sub-grid in halves instead"
                    );
                    let mut s = msc::core::schedule::Schedule::default();
                    let tile: Vec<usize> = sub.iter().map(|&x| (x / 2).max(1)).collect();
                    s.tile(&tile);
                    s.parallel("xo", 2);
                    ExecPlan::lower(&s, sub.len(), sub)
                })
            },
        )?;
        let dt = t0.elapsed();
        if tracing {
            msc::trace::set_enabled(false);
        }
        // Which channel the frames crossed and why: the runtime checksums
        // them exactly when the world has a fault plan.
        let frames = match &opts.chaos {
            Some(plan) => format!("frames checked: fault plan {}", plan.seed),
            None => "frames unchecked: no fault plan".to_string(),
        };
        println!(
            "distributed run over {} ranks {:?} ({frames}): {} steps in {:.1} ms; {} halo msgs, \
             {} faults injected, {} retransmits, {} restarts, {} recoveries, \
             {} checkpoint bytes; interior checksum {:.6e}",
            stats.ranks,
            procs,
            stats.steps,
            dt.as_secs_f64() * 1e3,
            stats.messages,
            stats.faults_injected(),
            stats.retransmits(),
            stats.restarts,
            stats.recoveries,
            stats.checkpoint_bytes(),
            out.interior_sum()
        );
        let (reference, _) = run_program(&program, &Executor::Reference, &init)?;
        if out.as_slice() != reference.as_slice() {
            return Err(format!(
                "distributed result differs from serial reference (max rel err {:.2e})",
                max_rel_error(&out, &reference)
            )
            .into());
        }
        println!("verified vs serial reference: bit-identical");
        if tracing {
            // CommStats carries the authoritative counters and latency
            // histograms (merged across ranks by the driver); the global
            // capture contributes the rank-tagged span timeline recorded
            // by the worker threads. Stitched together they are one
            // cross-rank profile.
            let mut prof = stats.profile(format!("{} (distributed)", program.name));
            let spans = msc::trace::Profile::capture(String::new()).spans;
            prof.spans = spans;
            let report = msc::trace::straggler_report(&prof);
            print!("{}", msc::trace::render_straggler_report(&report));
            if args.profile {
                print!("{}", prof.to_table());
            }
            if let Some(path) = &args.trace {
                std::fs::write(path, prof.to_chrome_json())
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                println!(
                    "wrote stitched chrome://tracing profile ({} ranks) to {}",
                    stats.ranks,
                    path.display()
                );
            }
            // A metrics session still owes its final flush; resetting
            // the hub here would zero the sampler's last sample.
            if session_hub.is_none() {
                msc::trace::reset();
            }
        }
        if let Some(path) = &args.dump {
            msc::exec::io::save(&out, path)?;
            println!("dumped final state to {}", path.display());
        }
    } else if args.run {
        let tracing = args.profile || args.trace.is_some();
        let init: Grid<f64> = Grid::random(&program.grid.shape, &program.grid.halo, 42);
        let sched = effective_schedule(&program, target);
        let plan = ExecPlan::lower(&sched, program.grid.ndim(), &program.grid.shape)?;
        if tracing {
            msc::trace::reset();
            msc::trace::set_enabled(true);
        }
        let t0 = std::time::Instant::now();
        let (out, stats) = msc::exec::run_program_tier(
            &program,
            &Executor::Tiled(plan),
            &init,
            Boundary::Dirichlet,
            args.exec_tier,
        )?;
        let dt = t0.elapsed();
        if tracing {
            msc::trace::set_enabled(false);
        }
        // What evaluated the rows: the resolved tier (an explicit `vm`
        // request degrades to the interpreter when the kernel overflows
        // the VM's register file; auto and specialized never degrade) and,
        // on the specialized tier, the row kernel's ISA and whether it
        // prefetches. All of it is a function of the CPU, the program and
        // the grid's size, so compiling again gives what the run used.
        let tier = msc::exec::TieredStencil::compile(&program, &init, args.exec_tier)?.describe();
        println!(
            "ran {} steps in {:.1} ms ({} tiles, {tier}); interior checksum {:.6e}",
            stats.steps,
            dt.as_secs_f64() * 1e3,
            stats.tiles_executed,
            out.interior_sum()
        );
        if tracing {
            let prof = msc::trace::Profile::capture(format!("{} ({tier})", program.name));
            if args.profile {
                print!("{}", prof.to_table());
            }
            if let Some(path) = &args.trace {
                std::fs::write(path, prof.to_chrome_json())
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                println!("wrote chrome://tracing profile to {}", path.display());
            }
            if session_hub.is_none() {
                msc::trace::reset();
            }
        }
        let (reference, _) = run_program(&program, &Executor::Reference, &init)?;
        println!(
            "verified vs serial reference: max rel err {:.2e}",
            max_rel_error(&out, &reference)
        );
        if let Some(path) = &args.dump {
            msc::exec::io::save(&out, path)?;
            println!("dumped final state to {}", path.display());
        }
    }

    if let Some(s) = sampler.take() {
        let sum = s.stop();
        println!(
            "metrics: {} sample(s), {} alert(s) -> {} (OpenMetrics: {})",
            sum.samples,
            sum.alerts,
            sum.jsonl_path.display(),
            sum.openmetrics_path.display()
        );
        if let Some(e) = sum.io_error {
            eprintln!("mscc: metrics stream had write errors: {e}");
        }
    }

    let dir = args
        .outdir
        .unwrap_or_else(|| PathBuf::from(format!("{}_{}", program.name, target.as_str())));
    let pkg = compile_to_source(&program, target)?;
    pkg.write_to(&dir)?;
    println!(
        "wrote {:?} ({} LoC) to {}",
        pkg.file_names(),
        pkg.total_loc(),
        dir.display()
    );
    Ok(())
}

/// The kernel's own schedule if any primitives were given, else the
/// Table 5 preset clamped to the grid.
fn effective_schedule(program: &StencilProgram, target: Target) -> msc::core::schedule::Schedule {
    let k = &program.stencil.kernels[0];
    if k.schedule.tile_factors.is_empty() && k.schedule.parallel.is_none() {
        preset_for_grid(k.ndim, k.points(), target, &program.grid.shape)
    } else {
        k.schedule.clone()
    }
}
