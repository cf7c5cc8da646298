//! `mscc` — the MSC compiler driver.
//!
//! Compiles a `.msc` stencil description to a C source package (plus
//! Makefile) for a target, optionally running the program functionally
//! and printing a simulated performance report:
//!
//! ```text
//! mscc stencil.msc -o outdir            # emit code for the file's target
//! mscc stencil.msc --run                # execute, verify, print stats
//! mscc stencil.msc --simulate --stats   # predicted time, static kernel statistics
//! mscc stencil.msc --profile --trace out.json
//!                                       # run under tracing: table + chrome://tracing JSON
//! mscc stencil.msc --procs 2x2 --chaos 1:kill=1@3 --checkpoint-every 2
//!                                       # distributed: kill a rank, restart from checkpoint
//! mscc check stencil.msc --json         # the static verifier only
//! mscc lift nest.c --emit-msc           # lift a C loop nest to stencil IR
//! mscc top metrics.jsonl --once         # per-rank view of a metrics stream
//! mscc serve --workers 4                # run the mscd compile-and-run daemon
//! mscc submit stencil.msc --run         # send a program to a running mscd
//! ```
//!
//! `--profile` and `--trace` imply `--run`; both may be combined.
//! A source with an `mpi P Q [R]` clause runs (`--run`) over that process
//! grid; `--chaos` and `--checkpoint-every` imply a distributed run of any
//! source. The process grid is `--procs`, else the `mpi` clause, else
//! `2x1[x1...]`; every rank sweeps its sub-grid under the source's own
//! schedule, and every run, serial or distributed, must match the serial
//! reference bit for bit or `mscc` exits nonzero.
//!
//! Every flag of every subcommand is one row of one table ([`COMPILE`],
//! [`SUBS`]): its spellings and metavar, what follows it, the [`Opts`]
//! field the value lands in, and its help text. [`parse`] is the only
//! reader of the command line and [`help`] prints the same rows, so a flag
//! is accepted, validated and documented in one place; run options land
//! directly in [`RunOptions`]. `mscc --help` is the flag reference.

use msc::comm::{
    run_distributed_resilient, FaultPlan, HeartbeatConfig, RunOptions, CHECKPOINT_KEEP,
};
use msc::core::analysis::StencilStats;
use msc::core::schedule::{effective_schedule, ExecPlan, Schedule};
use msc::exec::verify::same_bits;
use msc::prelude::*;
use msc::service::ServiceConfig;
use msc::trace::Json;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

type Outcome = Result<(), Box<dyn std::error::Error>>;

/// Everything a command line can set, for all subcommands: each table
/// row names the field its flag lands in, and each `drive_*` reads the
/// fields its own rows set.
#[derive(Default)]
struct Opts {
    /// The one positional argument.
    input: Option<PathBuf>,
    target: Option<Target>,
    run: bool,
    stats: bool,
    json: bool,
    outdir: Option<PathBuf>,
    simulate: bool,
    autoschedule: bool,
    dump: Option<PathBuf>,
    profile: bool,
    trace: Option<PathBuf>,
    procs: Option<Vec<usize>>,
    flight_dir: Option<PathBuf>,
    pool_threads: Option<NonZeroUsize>,
    metrics_file: Option<PathBuf>,
    metrics_interval_ms: Option<u64>,
    /// The run options themselves: the tier (serial runs read it too),
    /// fault plan, checkpointing, spares and heartbeat.
    dist: RunOptions,
    emit_msc: bool,
    once: bool,
    strict: bool,
    interval_ms: Option<u64>,
    /// `serve` reads all of it, `submit` the socket.
    service: ServiceConfig,
    tenant: Option<String>,
    sleep_ms: u64,
    ping: bool,
    shutdown: bool,
}

impl Opts {
    fn input(&self) -> &Path {
        self.input
            .as_deref()
            .expect("parse() refuses a command line without its required positional")
    }
}

/// What follows a flag on the command line, and the setter that lands it.
/// The last three kinds have one home each.
enum Kind {
    Switch(fn(&mut Opts)),
    Path(fn(&mut Opts, PathBuf)),
    /// A whole number of at least the given minimum.
    Count(usize, fn(&mut Opts, usize)),
    /// Milliseconds, at least the given minimum.
    Millis(u64, fn(&mut Opts, u64)),
    /// Free text; the setter says what was wrong with it.
    Text(fn(&mut Opts, &str) -> Result<(), String>),
    /// `sunway | matrix | cpu`, into [`Opts::target`].
    Target,
    /// An execution tier, into [`RunOptions::tier`].
    Tier,
    /// `PxQ[xR]`, into [`Opts::procs`].
    Procs,
}
use Kind as K;

fn at_least<T>(v: &str, min: T) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + std::fmt::Display,
{
    let n = v.parse().ok().filter(|n| *n >= min);
    n.ok_or_else(|| format!("expected a whole number of at least {min}"))
}

impl Kind {
    /// Parse `v` as this kind and store it; `Err` says what was expected.
    fn land(&self, o: &mut Opts, v: &str) -> Result<(), String> {
        match *self {
            K::Switch(set) => set(o),
            K::Path(set) => set(o, v.into()),
            K::Count(min, set) => set(o, at_least(v, min)?),
            K::Millis(min, set) => set(o, at_least(v, min)?),
            K::Text(set) => set(o, v)?,
            K::Target => {
                o.target = Some(Target::from_name(v).ok_or("expected sunway, matrix or cpu")?);
            }
            K::Tier => {
                o.dist.tier = msc::exec::ExecTier::parse(v)
                    .ok_or("expected auto, interp, vm or specialized")?;
            }
            K::Procs => {
                let grid: Result<Vec<usize>, _> =
                    v.split('x').map(|p| at_least(p.trim(), 1)).collect();
                o.procs = Some(grid.map_err(|_| "expected positive extents like 2x2")?);
            }
        }
        Ok(())
    }
}

struct Flag {
    /// The flag as the help shows it: every spelling (a short one first,
    /// comma-separated), then the metavar if a value follows.
    spec: &'static str,
    kind: Kind,
    help: &'static str,
}

impl Flag {
    fn names(&self) -> impl Iterator<Item = &'static str> {
        self.spec.split([',', ' ']).filter(|w| w.starts_with('-'))
    }

    /// What the help and the error messages call the value.
    fn meta(&self) -> &'static str {
        let last = self.spec.rsplit(' ').next();
        last.filter(|w| !w.starts_with('-')).unwrap_or("")
    }
}

const fn flag(spec: &'static str, kind: Kind, help: &'static str) -> Flag {
    Flag { spec, kind, help }
}

struct Group {
    title: &'static str,
    flags: &'static [Flag],
}

struct Sub {
    /// The first argument that selects it; empty for the compile command,
    /// which is what `mscc` does when no subcommand is named.
    name: &'static str,
    /// The positional argument: what to call it, and whether it must be
    /// there.
    positional: Option<(&'static str, bool)>,
    about: &'static str,
    drive: fn(Opts) -> Outcome,
    groups: &'static [Group],
}

impl Sub {
    fn label(&self) -> &'static str {
        if self.name.is_empty() {
            "compile"
        } else {
            self.name
        }
    }
}

// The table, one flag per row: spec, kind and setter, then the help text.
#[rustfmt::skip]
static COMPILE: Sub = Sub {
    name: "", positional: Some(("<file.msc>", true)), drive,
    about: "compile a stencil (and optionally run it)",
    groups: &[
        Group { title: "input / output", flags: &[
            flag("-o, --out DIR", K::Path(|o, p| o.outdir = Some(p)),
                 "output directory for the generated C package"),
            flag("--target NAME", K::Target,
                 "code generation target: sunway | matrix | cpu"),
            flag("--dump PATH", K::Path(|o, p| o.dump = Some(p)),
                 "save the final state to PATH (MSCGRID1 format)"),
        ] },
        Group { title: "execution", flags: &[
            flag("--run", K::Switch(|o| o.run = true),
                 "execute functionally and print run statistics"),
            flag("--exec-tier TIER", K::Tier,
                 "row evaluation tier: auto | interp | vm | specialized (default auto - fastest \
                  applicable; every tier is bit-identical to the interpreter)"),
            flag("--simulate", K::Switch(|o| o.simulate = true),
                 "print the predicted time on the target machine model"),
            flag("--stats", K::Switch(|o| o.stats = true),
                 "print static kernel statistics"),
            flag("--autoschedule", K::Switch(|o| o.autoschedule = true),
                 "pick tiles/stream/tile_time automatically"),
            flag("--pool-threads N", K::Count(1, |o, n| o.pool_threads = NonZeroUsize::new(n)),
                 "cap the persistent worker pool at N threads (N >= 1). Default: width decided \
                  by the plan"),
        ] },
        Group { title: "distributed", flags: &[
            flag("--procs PxQ[xR]", K::Procs,
                 "run over a process grid (e.g. 2x2), verified bit-exactly against the serial \
                  reference; overrides the source's `mpi` clause, which is what --run uses \
                  otherwise"),
            flag("--chaos SEED:SPEC",
                 K::Text(|o, s| FaultPlan::parse(s).map(|plan| o.dist.chaos = Some(Arc::new(plan)))),
                 "seeded fault injection (delay=P reorders frames, kill=RANK@N kills a rank); \
                  implies distributed"),
            flag("--checkpoint-every K", K::Count(0, |o, k| o.dist.checkpoint_every = k),
                 "write a checkpoint every K steps"),
            flag("--checkpoint-dir DIR", K::Path(|o, p| o.dist.checkpoint_dir = Some(p)),
                 "checkpoint directory (default: one of this run's own under the temp dir, \
                  removed afterwards)"),
            flag("--spare-ranks N", K::Count(0, |o, n| o.dist.spare_ranks = n),
                 "launch N hot-spare ranks; a dead rank is healed online (spare adopts its \
                  subdomain from the buddy snapshot) instead of restarting the world; implies \
                  distributed"),
            flag("--heartbeat-ms MS",
                 K::Millis(1, |o, ms| {
                     let hb = HeartbeatConfig::from_millis(ms);
                     o.dist.heartbeat = Some(hb.expect("an interval of at least 1 ms is valid"));
                 }),
                 "liveness beacon interval in ms, at least 1 (failure detection timeout is 4x MS; \
                  default 50); implies distributed and the membership layer"),
        ] },
        Group { title: "observability", flags: &[
            flag("--profile", K::Switch(|o| o.profile = true),
                 "run under tracing; print the counter and latency-histogram tables (distributed \
                  runs also print the per-step straggler report)"),
            flag("--trace OUT.json", K::Path(|o, p| o.trace = Some(p)),
                 "run under tracing; write chrome://tracing JSON (distributed runs stitch all \
                  ranks into one timeline with send->recv flow arrows)"),
            flag("--flight-dir DIR", K::Path(|o, p| o.flight_dir = Some(p)),
                 "dump the always-on flight recorder to DIR as JSON when a communication fault \
                  or restart fires"),
            flag("--metrics-file PATH", K::Path(|o, p| o.metrics_file = Some(p)),
                 "sample live metrics during the run: one JSONL line per interval appended to \
                  PATH (schema msc-metrics-v1) plus an OpenMetrics snapshot atomically rewritten \
                  at PATH's .om sibling; the stream is flushed on exit and on faults, and the \
                  online stall detector raises alerts"),
            flag("--metrics-interval-ms MS", K::Millis(0, |o, ms| o.metrics_interval_ms = Some(ms)),
                 "sampling interval in ms (default 250; requires --metrics-file)"),
        ] },
    ],
};

#[rustfmt::skip]
static SUBS: &[Sub] = &[
    Sub {
        name: "check", positional: Some(("<file.msc>", true)), drive: drive_check,
        about: "run the static stencil verifier only",
        groups: &[Group { title: "check subcommand (mscc check)", flags: &[
            flag("--json", K::Switch(|o| o.json = true),
                 "emit machine-readable JSON diagnostics on stdout (the exit code still reflects \
                  deny-level findings)"),
            flag("--target NAME", K::Target,
                 "select the capacity lints of this target instead of the source's own"),
        ] }],
    },
    Sub {
        name: "lift", positional: Some(("<file.c>", true)), drive: drive_lift,
        about: "lift a restricted C loop nest to stencil IR",
        groups: &[Group { title: "lift subcommand (mscc lift)", flags: &[
            flag("--emit-msc", K::Switch(|o| o.emit_msc = true),
                 "print the lifted program as `.msc` DSL source"),
            flag("--run", K::Switch(|o| o.run = true),
                 "execute the lifted program (serial reference) and print run statistics"),
            flag("--json", K::Switch(|o| o.json = true),
                 "emit machine-readable JSON diagnostics on stdout (same schema and deny-gated \
                  exit code as `mscc check`; MSC-L5xx codes report lift failures, and a \
                  successful lift is additionally validated bit-for-bit against direct \
                  interpretation of the C nest on every execution tier)"),
        ] }],
    },
    Sub {
        name: "top", positional: Some(("METRICS.jsonl", true)), drive: drive_top,
        about: "live per-rank view of a metrics stream",
        groups: &[Group { title: "top subcommand (mscc top)", flags: &[
            flag("--once", K::Switch(|o| o.once = true),
                 "render one snapshot and exit (no tail-follow)"),
            flag("--strict", K::Switch(|o| o.strict = true),
                 "validate the stream while rendering: schema tag, monotone seq and counters, \
                  well-formed OpenMetrics sibling; exit nonzero on violation"),
            flag("--interval-ms MS", K::Millis(1, |o, ms| o.interval_ms = Some(ms)),
                 "redraw interval while following, at least 1 (default 500)"),
        ] }],
    },
    Sub {
        name: "serve", positional: None, drive: drive_serve,
        about: "run the mscd compile-and-run daemon",
        groups: &[Group { title: "serve subcommand (mscc serve)", flags: &[
            flag("--socket PATH", K::Path(|o, p| o.service.socket = p),
                 "Unix socket to listen on (default: mscd.sock in the system temp directory)"),
            flag("--workers N", K::Count(1, |o, n| o.service.workers = n),
                 "job worker threads, at least 1 (default 2)"),
            flag("--max-queue N", K::Count(0, |o, n| o.service.max_queue = n),
                 "admission bound on queued jobs (default 16); a full queue answers a typed \
                  busy/queue response instead of blocking the client"),
            flag("--tenant-quota N", K::Count(0, |o, n| o.service.tenant_quota = n),
                 "per-tenant in-flight bound, queued + running (default 4); at quota a tenant \
                  gets busy/quota while other tenants still get through"),
            flag("--metrics-dir DIR", K::Path(|o, p| o.service.metrics_dir = Some(p)),
                 "give every job its own telemetry session sampled into DIR/job_<id>.jsonl \
                  (+ OpenMetrics sibling)"),
            flag("--pool-threads N", K::Count(0, |o, n| o.service.pool_threads = n),
                 "helper threads each worker pre-warms in its persistent execution pool \
                  (0 = grow on demand)"),
        ] }],
    },
    Sub {
        name: "submit", positional: Some(("<file.msc>", false)), drive: drive_submit,
        about: "send a program to a running mscd",
        groups: &[Group { title: "submit subcommand (mscc submit)", flags: &[
            flag("--socket PATH", K::Path(|o, p| o.service.socket = p),
                 "daemon socket to connect to (same default)"),
            flag("--tenant NAME", K::Text(|o, s| { o.tenant = Some(s.into()); Ok(()) }),
                 "tenant identity for admission control (default `default`)"),
            flag("--run", K::Switch(|o| o.run = true),
                 "also execute the program functionally and report steps/tiles and this job's \
                  telemetry counters"),
            flag("--target NAME", K::Target,
                 "override the code generation target"),
            flag("--sleep-ms MS", K::Millis(0, |o, ms| o.sleep_ms = ms),
                 "artificial delay before the job body (a load knob for admission-control \
                  testing)"),
            flag("--ping", K::Switch(|o| o.ping = true),
                 "liveness probe instead of a submission"),
            flag("--stats", K::Switch(|o| o.stats = true),
                 "print service-wide counters instead of a submission"),
            flag("--shutdown", K::Switch(|o| o.shutdown = true),
                 "ask the daemon to finish queued jobs and exit"),
        ] }],
    },
];

const ASKS_FOR_HELP: &str = "-h, --help";
/// Where the text of a help row starts.
const TEXT_COL: usize = 27;

fn all_subs() -> impl Iterator<Item = &'static Sub> {
    std::iter::once(&COMPILE).chain(SUBS)
}

/// The one reader of the command line: the first argument picks the
/// subcommand, then every flag lands through its table row. `Ok(None)`
/// means help was asked for.
fn parse(argv: impl IntoIterator<Item = String>) -> Result<Option<(&'static Sub, Opts)>, String> {
    let mut argv = argv.into_iter().peekable();
    let sub = match argv.peek().and_then(|a| SUBS.iter().find(|s| s.name == a)) {
        Some(named) => {
            argv.next();
            named
        }
        None => &COMPILE,
    };
    let mut o = Opts::default();
    while let Some(arg) = argv.next() {
        if ASKS_FOR_HELP.split(", ").any(|h| h == arg) {
            return Ok(None);
        }
        let mut flags = sub.groups.iter().flat_map(|g| g.flags);
        let Some(flag) = flags.find(|f| f.names().any(|n| n == arg)) else {
            if sub.positional.is_some() && o.input.is_none() && !arg.starts_with('-') {
                o.input = Some(arg.into());
                continue;
            }
            return Err(format!("unexpected {} argument `{arg}`", sub.label()));
        };
        let meta = flag.meta();
        let missing = || format!("missing {meta} after {arg}");
        let value = match flag.kind {
            K::Switch(_) => String::new(),
            _ => argv.next().ok_or_else(missing)?,
        };
        let landed = flag.kind.land(&mut o, &value);
        landed.map_err(|why| format!("bad {meta} `{value}` after {arg} ({why})"))?;
    }
    match sub.positional {
        Some((what, true)) if o.input.is_none() => Err(format!("no {what} given (try --help)")),
        _ => Ok(Some((sub, o))),
    }
}

/// The help screen, generated from the table: the usage lines, then every
/// group's flags with their text wrapped to 80 columns.
fn help() -> String {
    let mut h = String::from("mscc — MSC stencil compiler driver\n\nusage:\n");
    for s in all_subs() {
        let what = s.positional.map_or("", |(what, _)| what);
        let words = ["mscc", s.name, what, "[options]"];
        let words: Vec<&str> = words.into_iter().filter(|w| !w.is_empty()).collect();
        h += &format!("  {:<34}{}\n", words.join(" "), s.about);
    }
    for g in all_subs().flat_map(|s| s.groups) {
        h += &format!("\n{}:\n", g.title);
        for f in g.flags {
            help_row(&mut h, f.spec, f.help);
        }
    }
    h += "\n";
    help_row(&mut h, ASKS_FOR_HELP, "show this help");
    h
}

/// One flag of the help screen: its spec, then its text from column
/// [`TEXT_COL`] on, wrapped at 80.
fn help_row(h: &mut String, spec: &str, text: &str) {
    let indent = if spec.starts_with("--") { 6 } else { 2 };
    let mut line = format!("{:indent$}{spec}", "");
    let mut flush = |line: &mut String| {
        *h += line;
        *h += "\n";
        line.clear();
    };
    if line.len() + 2 > TEXT_COL {
        flush(&mut line);
    }
    for word in text.split_whitespace() {
        if line.len() > TEXT_COL && line.len() + 1 + word.len() > 80 {
            flush(&mut line);
        }
        if line.len() < TEXT_COL {
            line = format!("{line:<TEXT_COL$}");
        } else {
            line.push(' ');
        }
        line += word;
    }
    flush(&mut line);
}

fn main() -> ExitCode {
    let outcome = match parse(std::env::args().skip(1)) {
        Ok(None) => {
            print!("{}", help());
            return ExitCode::SUCCESS;
        }
        Ok(Some((sub, opts))) => (sub.drive)(opts),
        Err(e) => Err(e.into()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mscc: {e}");
            ExitCode::FAILURE
        }
    }
}

fn read_source(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// `mscc top`: tail-follow a sampler JSONL stream and redraw a per-rank
/// table (step rate, halo wait, steals, recoveries, last alert). With
/// `--once` it renders a single snapshot — the mode CI uses together
/// with `--strict`, which re-validates the whole stream and its
/// OpenMetrics sibling on every pass.
fn drive_top(o: Opts) -> Outcome {
    use msc::top;
    let input = o.input();
    let mut last_rendered = String::new();
    // In --once mode a read can race the sampler mid-append; retry a few
    // times before concluding the stream really has no complete samples.
    let mut once_retries = 50u32;
    loop {
        let read = top::read_stream(input, o.strict)?;
        if o.strict {
            top::strict_check_stream(input, &read.docs)?;
        }
        if o.once && read.docs.is_empty() && read.partial_tail && once_retries > 0 {
            once_retries -= 1;
            std::thread::sleep(std::time::Duration::from_millis(10));
            continue;
        }
        let rendered = top::render_top(input, &read.docs);
        if rendered != last_rendered {
            if !o.once {
                // Home + clear: redraw in place while following.
                print!("\x1b[H\x1b[2J");
            }
            print!("{rendered}");
            last_rendered = rendered;
        }
        if o.once {
            if read.docs.is_empty() {
                return Err(format!("{}: no complete samples yet", input.display()).into());
            }
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(
            o.interval_ms.unwrap_or(500),
        ));
    }
}

/// `mscc serve`: run the mscd daemon in the foreground until a wire
/// `shutdown` request arrives (queued jobs finish first).
fn drive_serve(o: Opts) -> Outcome {
    let cfg = o.service;
    let (max_queue, tenant_quota) = (cfg.max_queue, cfg.tenant_quota);
    let metrics = cfg
        .metrics_dir
        .as_ref()
        .map(|d| format!(", metrics under {}", d.display()))
        .unwrap_or_default();
    let daemon = msc::service::Daemon::start(cfg)?;
    println!(
        "mscd listening on {} ({} worker(s), queue depth {max_queue}, \
         {tenant_quota} job(s)/tenant{metrics})",
        daemon.socket().display(),
        daemon.stats().workers,
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
fn drive_submit(o: Opts) -> Outcome {
    use msc::service::{Client, Request, Response, Submission};
    let request = match (o.ping, o.stats, o.shutdown, &o.input) {
        (true, false, false, None) => Request::Ping,
        (false, true, false, None) => Request::Stats,
        (false, false, true, None) => Request::Shutdown,
        (false, false, false, Some(file)) => Request::Submit(Submission {
            tenant: o.tenant.unwrap_or_else(|| "default".to_string()),
            source: read_source(file)?,
            target: o.target,
            run: o.run,
            sleep_ms: o.sleep_ms,
        }),
        (false, false, false, None) => {
            return Err("no input file (try --ping, --stats, --shutdown, or --help)".into())
        }
        _ => return Err("--ping/--stats/--shutdown are exclusive and take no file".into()),
    };
    let mut client = Client::connect(&o.service.socket)?;
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
fn drive_check(o: Opts) -> Outcome {
    let parsed = msc::core::parse::parse_unchecked(&read_source(o.input())?)?;
    let target = o.target.or(parsed.target);
    let report = msc::lint::lint_program(&parsed.program, target);
    if o.json {
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
fn drive_lift(o: Opts) -> Outcome {
    let source = read_source(o.input())?;
    let stem = o.input().file_stem();
    let fallback = stem.and_then(|s| s.to_str()).unwrap_or("lifted");
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
    if o.json {
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
    if o.emit_msc {
        print!("{}", msc::core::parse::to_msc_source(&lifted.program, None));
    }
    if o.run {
        let grid = &lifted.program.grid;
        let init: Grid<f64> = Grid::random(&grid.shape, &grid.halo, 42);
        let (out, stats) = run_program(&lifted.program, &Executor::Reference, &init)?;
        println!(
            "ran `{name}`: {} step(s), {} tile(s), interior sum {:.6e}",
            stats.steps,
            stats.tiles_executed,
            out.interior_sum()
        );
    }
    Ok(())
}

/// The compile command: lint, compile, and whatever of autoschedule /
/// stats / simulate / run the flags ask for, then the code package.
fn drive(mut o: Opts) -> Outcome {
    if o.metrics_interval_ms.is_some() && o.metrics_file.is_none() {
        return Err("--metrics-interval-ms requires --metrics-file".into());
    }
    // Tracing flags are about observing a run, so they imply one.
    let tracing = o.profile || o.trace.is_some();
    let run = o.run || tracing;
    let parsed = msc::core::parse::parse_unchecked(&read_source(o.input())?)?;
    let mut program = parsed.program;
    let target = o.target.or(parsed.target).unwrap_or(Target::Cpu);
    let machine = match target {
        Target::SunwayCG => msc::machine::presets::sunway_cg(),
        Target::Matrix => msc::machine::presets::matrix_processor(),
        Target::Cpu => msc::machine::presets::xeon_server(),
    };
    let prec = if program.grid.dtype == DType::F32 {
        Precision::Fp32
    } else {
        Precision::Fp64
    };

    // `--autoschedule` rewrites the schedule first, so the one check
    // below is of the program that runs and is emitted.
    if o.autoschedule {
        let stats = StencilStats::of(&program.stencil, program.grid.dtype)?;
        let auto = msc::tune::auto_schedule(
            &program.grid.shape,
            &stats,
            &program.stencil.reach(),
            program.stencil.kernels[0].points(),
            &machine,
            target,
            prec,
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

    // The one lint of the invocation: deny-level findings stop the build
    // with every defect listed; warnings print to stderr. The run, the
    // reference run and the emitter take `checked`.
    let checked = msc::lint::check(&program, Some(target))
        .map_err(|lint| format!("lint rejected `{}`:\n{}", program.name, lint.render()))?;
    eprint!("{}", checked.warnings.render());

    // Live telemetry: a metrics-sampled run gets its own session hub so
    // the sampler observes exactly this invocation. Installed before the
    // flight-dir handling below, which then scopes to the same session.
    let mut sampler = None;
    let mut _hub_guard = None;
    if let Some(path) = &o.metrics_file {
        let cfg =
            msc::trace::SamplerConfig::from_millis(o.metrics_interval_ms.unwrap_or(250), path)?;
        let hub = msc::trace::TelemetryHub::new();
        hub.set_enabled(true);
        _hub_guard = Some(msc::trace::install_thread_hub(Arc::clone(&hub)));
        sampler = Some(
            msc::trace::Sampler::start(Arc::clone(&hub), cfg)
                .map_err(|e| format!("cannot start metrics sampler: {e}"))?,
        );
        o.dist.hub = Some(hub);
    }

    if let Some(dir) = &o.flight_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        msc::trace::set_flight_dump_dir(Some(dir.clone()));
    }

    if let Some(n) = o.pool_threads {
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

    if o.stats {
        let s = StencilStats::of(&program.stencil, program.grid.dtype)?;
        println!(
            "per point: {} reads ({} B), {} B written, {} flops; reach {:?}",
            s.points,
            s.read_bytes,
            s.write_bytes,
            s.ops(),
            program.stencil.reach()
        );
    }

    let sched = effective_schedule(&program, target);
    let (ndim, shape) = (program.grid.ndim(), &program.grid.shape);

    if o.simulate {
        let plan = ExecPlan::lower(&sched, ndim, shape)?;
        let stats = StencilStats::of(&program.stencil, program.grid.dtype)?;
        let rep = simulate_step(
            &StepInputs {
                stats,
                reach: program.stencil.reach(),
                plan: &plan,
                prec,
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
    let distributed = o.procs.is_some()
        || (run && program.mpi_grid.is_some())
        || o.dist.chaos.is_some()
        || o.dist.checkpoint_every > 0
        || o.dist.spare_ranks > 0
        || o.dist.heartbeat.is_some();
    if distributed || run {
        let init: Grid<f64> = Grid::random(shape, &program.grid.halo, 42);
        let trace_on = |on: bool| {
            if tracing {
                if on {
                    msc::trace::reset();
                }
                msc::trace::set_enabled(on);
            }
        };
        // Each branch runs under tracing if asked, and hands the shared
        // tail its result, its banner, its profile and what to call the
        // trace file.
        let (out, banner, profile, trace_name) = if distributed {
            let procs = match (&o.procs, &program.mpi_grid) {
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
            // Unless one was named, a checkpoint directory of this process's
            // own, gone with it: two runs of one program at once must not
            // resume each other's snapshots.
            let own_ckpt = o.dist.checkpoint_every > 0 && o.dist.checkpoint_dir.is_none();
            if o.dist.checkpoint_every > 0 {
                let dir = o.dist.checkpoint_dir.get_or_insert_with(|| {
                    let own = format!("mscc_ckpt_{}_{}", program.name, std::process::id());
                    std::env::temp_dir().join(own)
                });
                // Nor may snapshots from an earlier invocation ever be resumed.
                let _ = std::fs::remove_dir_all(dir);
            }
            if o.dist.spare_ranks > 0 || o.dist.heartbeat.is_some() {
                let hb = o.dist.heartbeat.clone().unwrap_or_default();
                println!(
                    "resilience policy: {} spare rank(s), heartbeat every {} ms, \
                     failure detection after {} ms, keeping {} checkpoint generation(s)",
                    o.dist.spare_ranks,
                    hb.every.as_millis(),
                    hb.detect.as_millis(),
                    CHECKPOINT_KEEP,
                );
            }
            trace_on(true);
            let t0 = std::time::Instant::now();
            let ran = run_distributed_resilient(
                &checked,
                &procs,
                &init,
                Boundary::Dirichlet,
                &o.dist,
                // Every rank sweeps its sub-grid under the program's own
                // schedule; one that does not fit there gives way to halves.
                |sub| {
                    ExecPlan::lower(&sched, sub.len(), sub).or_else(|e| {
                        println!(
                            "note: the schedule does not lower over the {sub:?} sub-grid ({e}); \
                             each rank tiles its sub-grid in halves instead"
                        );
                        let mut s = Schedule::default();
                        let tile: Vec<usize> = sub.iter().map(|&x| (x / 2).max(1)).collect();
                        s.tile(&tile);
                        s.parallel("xo", 2);
                        ExecPlan::lower(&s, sub.len(), sub)
                    })
                },
            );
            let dt = t0.elapsed();
            if let (true, Some(dir)) = (own_ckpt, &o.dist.checkpoint_dir) {
                let _ = std::fs::remove_dir_all(dir);
            }
            let (out, stats) = ran?;
            trace_on(false);
            // What evaluated each rank's rows, as the serial banner below
            // says it: every rank compiles the program against a sub-grid
            // of this shape, and its time loop is the single node's.
            let sub =
                msc::comm::CartDecomp::new(shape, &procs, &program.stencil.reach())?.sub_extent();
            let blank: Grid<f64> = Grid::zeros(&sub, &program.grid.halo);
            let tier = msc::exec::TieredStencil::compile(&program, &blank, o.dist.tier)?.describe();
            let banner = format!(
                "distributed run over {} ranks {:?}: {} steps in {:.1} ms ({tier}); {} halo msgs, \
                 {} faults injected, {} restarts, {} recoveries, \
                 {} checkpoint bytes; interior checksum {:.6e}",
                stats.ranks,
                procs,
                stats.steps,
                dt.as_secs_f64() * 1e3,
                stats.messages,
                stats.faults_injected(),
                stats.restarts,
                stats.recoveries,
                stats.checkpoint_bytes(),
                out.interior_sum()
            );
            // CommStats carries the authoritative counters and latency
            // histograms (merged across ranks by the driver); the global
            // capture contributes the rank-tagged span timeline recorded
            // by the worker threads. Stitched together they are one
            // cross-rank profile.
            let profile = tracing.then(|| {
                let mut prof = stats.profile(format!("{} (distributed)", program.name));
                prof.spans = msc::trace::Profile::capture(String::new()).spans;
                prof
            });
            let trace_name = format!("stitched chrome://tracing profile ({} ranks)", stats.ranks);
            (out, banner, profile, trace_name)
        } else {
            let plan = ExecPlan::lower(&sched, ndim, shape)?;
            trace_on(true);
            let t0 = std::time::Instant::now();
            let (out, stats) = run_program_tier(
                &checked,
                &Executor::Tiled(plan),
                &init,
                Boundary::Dirichlet,
                o.dist.tier,
            )?;
            let dt = t0.elapsed();
            trace_on(false);
            // What evaluated the rows: the resolved tier (an explicit `vm`
            // request degrades to the interpreter when the kernel overflows
            // the VM's constant pool; auto and specialized never degrade) and,
            // on the specialized tier, the row kernel's ISA and whether it
            // prefetches; then whether a step reused the kernel's image of
            // the older states or why it evaluated every term. All of it is
            // a function of the CPU, the program and the grid's size, so
            // compiling again gives what the run used.
            let tier = msc::exec::TieredStencil::compile(&program, &init, o.dist.tier)?.describe();
            let banner = format!(
                "ran {} steps in {:.1} ms ({} tiles, {tier}); interior checksum {:.6e}",
                stats.steps,
                dt.as_secs_f64() * 1e3,
                stats.tiles_executed,
                out.interior_sum()
            );
            let profile =
                tracing.then(|| msc::trace::Profile::capture(format!("{} ({tier})", program.name)));
            (out, banner, profile, "chrome://tracing profile".to_string())
        };
        println!("{banner}");
        let (reference, _) = run_program(&checked, &Executor::Reference, &init)?;
        if !same_bits(&out, &reference) {
            return Err(format!(
                "result differs from the serial reference (max rel err {:.2e})",
                max_rel_error(&out, &reference)
            )
            .into());
        }
        println!("verified vs serial reference: bit-identical");
        if let Some(prof) = profile {
            if distributed {
                let report = msc::trace::straggler_report(&prof);
                print!("{}", msc::trace::render_straggler_report(&report));
            }
            if o.profile {
                print!("{}", prof.to_table());
            }
            if let Some(path) = &o.trace {
                std::fs::write(path, prof.to_chrome_json())
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                println!("wrote {trace_name} to {}", path.display());
            }
            // A metrics session still owes its final flush; resetting
            // the hub here would zero the sampler's last sample.
            if o.dist.hub.is_none() {
                msc::trace::reset();
            }
        }
        if let Some(path) = &o.dump {
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

    let default_dir = || PathBuf::from(format!("{}_{}", program.name, target.as_str()));
    let dir = o.outdir.unwrap_or_else(default_dir);
    let pkg = compile_to_source(&checked, target)?;
    pkg.write_to(&dir)?;
    println!(
        "wrote {:?} ({} LoC) to {}",
        pkg.file_names(),
        pkg.total_loc(),
        dir.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    fn accepted(words: &[&str]) -> (&'static Sub, Opts) {
        match parse(argv(words)) {
            Ok(Some(parsed)) => parsed,
            Ok(None) => panic!("{words:?} asked for help"),
            Err(e) => panic!("{words:?} refused: {e}"),
        }
    }

    fn refused(words: &[&str]) -> String {
        match parse(argv(words)) {
            Err(e) => e,
            Ok(_) => panic!("{words:?} accepted"),
        }
    }

    /// The subcommand's name and positional: the shortest line it accepts
    /// (for `submit`, once one of its flags says what to send).
    fn base(sub: &Sub) -> Vec<&'static str> {
        let positional = sub.positional.map(|(what, _)| what);
        [Some(sub.name), positional]
            .into_iter()
            .flatten()
            .filter(|w| !w.is_empty())
            .collect()
    }

    /// A value the kind accepts; `None` for a switch.
    fn sample(kind: &Kind) -> Option<String> {
        Some(match kind {
            K::Switch(_) => return None,
            K::Path(_) => "some/path".to_string(),
            K::Count(min, _) => min.to_string(),
            K::Millis(min, _) => min.to_string(),
            // A fault plan, and as good a tenant name as any.
            K::Text(_) => "7:delay=0.1".to_string(),
            K::Target => "cpu".to_string(),
            K::Tier => "vm".to_string(),
            K::Procs => "2x3".to_string(),
        })
    }

    /// Every (subcommand, flag, spelling) of the table.
    fn every_spelling() -> impl Iterator<Item = (&'static Sub, &'static Flag, &'static str)> {
        all_subs().flat_map(|s| {
            let flags = s.groups.iter().flat_map(|g| g.flags);
            flags.flat_map(move |f| f.names().map(move |n| (s, f, n)))
        })
    }

    #[test]
    fn every_flag_of_every_subcommand_parses_a_valid_sample() {
        let mut seen = 0;
        for (sub, flag, name) in every_spelling() {
            let value = sample(&flag.kind);
            let mut line = base(sub);
            line.push(name);
            line.extend(value.as_deref());
            let (picked, _) = accepted(&line);
            assert!(std::ptr::eq(picked, sub), "{line:?} ran {}", picked.label());
            seen += 1;
        }
        assert!(seen > 0, "the table has no flags");
    }

    #[test]
    fn a_value_flag_at_the_end_of_the_line_is_missing_its_value() {
        for (sub, flag, name) in every_spelling() {
            if sample(&flag.kind).is_none() {
                assert_eq!(flag.meta(), "", "{name} is a switch with a metavar");
                continue;
            }
            let mut line = base(sub);
            line.push(name);
            let meta = flag.meta();
            assert!(!meta.is_empty(), "{name} takes a value but names none");
            assert_eq!(refused(&line), format!("missing {meta} after {name}"));
        }
    }

    #[test]
    fn a_kind_with_a_grammar_refuses_what_does_not_fit_it() {
        for (sub, flag, name) in every_spelling() {
            let wrong: &[&str] = match flag.kind {
                K::Switch(_) | K::Path(_) | K::Text(_) => continue,
                K::Count(0, _) | K::Millis(0, _) => &["x", "-1", "1.5", ""],
                K::Count(..) | K::Millis(..) => &["x", "0"],
                K::Target | K::Tier => &["x", ""],
                K::Procs => &["x", "", "2x", "2x0", "0"],
            };
            for value in wrong {
                let mut line = base(sub);
                line.extend([name, value]);
                let e = refused(&line);
                let shape = format!("bad {} `{value}` after {name} (expected ", flag.meta());
                assert!(e.starts_with(&shape), "{line:?}: {e}");
            }
        }
        // Free text is refused by its own setter, in the same shape.
        let e = refused(&["a.msc", "--chaos", "not-a-spec"]);
        assert!(
            e.starts_with("bad SEED:SPEC `not-a-spec` after --chaos (chaos spec "),
            "{e}"
        );
    }

    #[test]
    fn help_after_any_subcommand_takes_the_one_path() {
        for sub in all_subs() {
            for help in ["-h", "--help"] {
                let mut line = base(sub);
                line.push(help);
                assert!(matches!(parse(argv(&line)), Ok(None)), "{line:?}");
                // Before the positional too: asking for help needs no file.
                let line = [sub.name, help];
                let line: Vec<&str> = line.into_iter().filter(|w| !w.is_empty()).collect();
                assert!(matches!(parse(argv(&line)), Ok(None)), "{line:?}");
            }
        }
        // Arguments are read in order: a bad one before `--help` wins.
        assert_eq!(
            refused(&["--bogus", "--help"]),
            "unexpected compile argument `--bogus`"
        );
    }

    #[test]
    fn the_help_screen_is_the_table() {
        let help = help();
        for (_, flag, name) in every_spelling() {
            // Every spelling opens a row of its own or follows a comma in one.
            assert!(
                help.contains(&format!("  {name}")) || help.contains(&format!(", {name}")),
                "help does not document `{name}`:\n{help}"
            );
            assert!(help.contains(flag.spec), "no row for `{}`", flag.spec);
        }
        for sub in all_subs() {
            assert!(
                help.contains(sub.about),
                "no usage line for {}",
                sub.label()
            );
        }
        assert!(help.contains("  -h, --help"));
        for line in help.lines() {
            assert!(line.chars().count() <= 80, "wider than 80 columns: {line}");
            assert_eq!(line, line.trim_end(), "trailing blanks: {line:?}");
        }
    }

    #[test]
    fn positionals_and_strays_have_one_error_shape_each() {
        for sub in all_subs() {
            let named: Vec<&str> = base(sub).into_iter().take(1).collect();
            match sub.positional {
                Some((what, true)) => {
                    let line = if sub.name.is_empty() { vec![] } else { named };
                    assert_eq!(refused(&line), format!("no {what} given (try --help)"));
                }
                // `submit` may go without (drive_submit wants --ping or the
                // like then) and `serve` takes none.
                Some((_, false)) => drop(accepted(&named)),
                None => {
                    let e = refused(&[sub.name, "stray"]);
                    assert_eq!(e, format!("unexpected {} argument `stray`", sub.name));
                }
            }
            if sub.positional.is_some() {
                let mut line = base(sub);
                line.push("second");
                let e = refused(&line);
                assert_eq!(e, format!("unexpected {} argument `second`", sub.label()));
            }
            let mut line = base(sub);
            line.push("--no-such-flag");
            let e = refused(&line);
            let want = format!("unexpected {} argument `--no-such-flag`", sub.label());
            assert_eq!(e, want);
        }
        // A subcommand's flags are its own: `--once` belongs to `top`.
        assert_eq!(
            refused(&["a.msc", "--once"]),
            "unexpected compile argument `--once`"
        );
        // Only the first argument can name a subcommand.
        assert_eq!(
            refused(&["a.msc", "check"]),
            "unexpected compile argument `check`"
        );
    }

    #[test]
    fn run_options_land_where_the_run_reads_them() {
        let (_, o) = accepted(&[
            "a.msc",
            "--procs",
            "2x3",
            "--chaos",
            "9:kill=1@3",
            "--checkpoint-every",
            "2",
            "--checkpoint-dir",
            "ck",
            "--spare-ranks",
            "1",
            "--heartbeat-ms",
            "5",
            "--exec-tier",
            "vm",
            "--pool-threads",
            "3",
            "-o",
            "short",
            "--out",
            "long",
        ]);
        assert_eq!(o.procs, Some(vec![2, 3]));
        assert_eq!(o.dist.chaos.as_ref().map(|plan| plan.seed), Some(9));
        assert_eq!(o.dist.checkpoint_every, 2);
        assert_eq!(o.dist.checkpoint_dir, Some(PathBuf::from("ck")));
        assert_eq!(o.dist.spare_ranks, 1);
        let hb = o.dist.heartbeat.expect("--heartbeat-ms sets the heartbeat");
        assert_eq!((hb.every.as_millis(), hb.detect.as_millis()), (5, 20));
        assert_eq!(o.dist.tier, msc::exec::ExecTier::Vm);
        assert_eq!(o.pool_threads, NonZeroUsize::new(3));
        // Both spellings are one flag; the later one wins.
        assert_eq!(o.outdir, Some(PathBuf::from("long")));
        // Nothing given: the library's own defaults, not a second set.
        let (_, o) = accepted(&["serve"]);
        let d = ServiceConfig::default();
        assert_eq!(
            (o.service.socket, o.service.workers, o.service.max_queue),
            (d.socket, d.workers, d.max_queue)
        );
        let (_, o) = accepted(&["serve", "--workers", "3", "--pool-threads", "0"]);
        assert_eq!((o.service.workers, o.service.pool_threads), (3, 0));
        assert_eq!(o.pool_threads, None);
    }
}
