//! The mscd server: a Unix-socket listener, per-connection handler
//! threads, and a bounded job queue drained by persistent workers.
//!
//! Threading model:
//!
//! * the **acceptor** owns the listener and spawns one detached handler
//!   per connection (a connection is a synchronous session: request in,
//!   response out, in order);
//! * **handlers** decode requests; a `submit` passes admission control
//!   under the state lock (bounded queue, per-tenant in-flight quota)
//!   and then blocks on the job's result channel — so slow jobs hold
//!   their connection, never the daemon;
//! * **workers** (configurable count) pop jobs from the queue. Each
//!   worker warms its thread-local [`msc_exec::pool`] once at startup,
//!   so run jobs reuse parked helper threads instead of respawning.
//!
//! Every job executes under its own [`TelemetryHub`] installed on the
//! worker thread for the duration of the job: counters, histograms and
//! the optional per-job metrics stream observe exactly one submission,
//! no matter how many tenants are in flight.
//!
//! The verifier is the front door: submissions are linted before they
//! can touch codegen or the executors. Deny-level findings return as
//! structured [`Response::Denied`]; nothing a client sends can panic
//! the daemon (malformed protocol lines get [`Response::Error`], a line
//! over [`MAX_REQUEST_BYTES`] gets it and a closed connection, and a
//! worker that somehow panics poisons nothing — jobs own their state).

use crate::cache::CompileCache;
use crate::proto::{BusyReason, JobDone, Request, Response, ServiceStats, Submission, PROTO_VERSION};
use msc_trace::Json;
use msc_core::schedule::{effective_schedule, ExecPlan, Target};
use msc_exec::driver::{run_program, Executor};
use msc_exec::Grid;
use msc_trace::{install_thread_hub, Sampler, SamplerConfig, TelemetryHub};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The longest request line the daemon reads, newline excluded: far above
/// any submission of a shipped program (a few KiB of source), and all a
/// client that never sends a newline can make a handler buffer. A longer
/// line gets [`Response::Error`] and the connection is closed.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Daemon configuration. The defaults suit an interactive session; CI
/// and tests shrink the queue and quota to force the Busy paths.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Unix socket path. A stale socket file is replaced at startup.
    pub socket: PathBuf,
    /// Job worker threads.
    pub workers: usize,
    /// Admission bound: a `submit` arriving with this many jobs already
    /// queued (not yet picked up by a worker) gets `Busy{queue}`.
    pub max_queue: usize,
    /// Per-tenant in-flight bound (queued + running): one tenant at its
    /// quota gets `Busy{quota}` while others still get through.
    pub tenant_quota: usize,
    /// When set, every job is sampled into `<dir>/job_<id>.jsonl` (plus
    /// the OpenMetrics sibling) by a per-job [`Sampler`].
    pub metrics_dir: Option<PathBuf>,
    /// Helper threads each worker pre-spawns in its thread-local
    /// execution pool (0 = grow on demand).
    pub pool_threads: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            socket: std::env::temp_dir().join("mscd.sock"),
            workers: 2,
            max_queue: 16,
            tenant_quota: 4,
            metrics_dir: None,
            pool_threads: 0,
        }
    }
}

struct Job {
    id: u64,
    sub: Submission,
    done: mpsc::Sender<Response>,
}

#[derive(Default)]
struct State {
    queue: VecDeque<Job>,
    /// Per-tenant in-flight jobs (queued + running).
    inflight: HashMap<String, usize>,
    running: usize,
    shutdown: bool,
}

struct Inner {
    cfg: ServiceConfig,
    state: Mutex<State>,
    work: Condvar,
    cache: CompileCache,
    next_job: AtomicU64,
    jobs_done: AtomicU64,
    jobs_denied: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_rejected: AtomicU64,
}

/// A running daemon. Dropping it without [`Daemon::join`] detaches the
/// threads; use [`Daemon::stop`] for a local shutdown.
pub struct Daemon {
    inner: Arc<Inner>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Bind the socket and start the acceptor and worker threads.
    pub fn start(cfg: ServiceConfig) -> Result<Daemon, String> {
        if cfg.workers == 0 {
            return Err("mscd needs at least one worker".into());
        }
        if let Some(dir) = &cfg.metrics_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        // Replace a stale socket from a dead daemon; a live one would
        // have accepted connections and is the operator's to resolve.
        // The socket is bound beside its path and moved there listening,
        // so a client that sees the path can connect.
        let _ = std::fs::remove_file(&cfg.socket);
        let staged = cfg.socket.with_extension("binding");
        let _ = std::fs::remove_file(&staged);
        let listener = UnixListener::bind(&staged)
            .and_then(|l| std::fs::rename(&staged, &cfg.socket).map(|()| l))
            .map_err(|e| format!("cannot bind {}: {e}", cfg.socket.display()))?;

        let inner = Arc::new(Inner {
            cfg,
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            cache: CompileCache::new(),
            next_job: AtomicU64::new(1),
            jobs_done: AtomicU64::new(0),
            jobs_denied: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
        });

        let workers = (0..inner.cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("mscd-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .map_err(|e| format!("cannot spawn worker: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;

        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("mscd-acceptor".to_string())
                .spawn(move || accept_loop(&inner, listener))
                .map_err(|e| format!("cannot spawn acceptor: {e}"))?
        };

        Ok(Daemon {
            inner,
            acceptor: Some(acceptor),
            workers,
        })
    }

    pub fn socket(&self) -> &std::path::Path {
        &self.inner.cfg.socket
    }

    /// Service-wide counters (also served over the wire as `stats`).
    pub fn stats(&self) -> ServiceStats {
        self.inner.stats()
    }

    /// Request shutdown locally (same semantics as the wire request:
    /// queued jobs finish first) without waiting for the threads.
    pub fn stop(&self) {
        self.inner.begin_shutdown();
    }

    /// Wait for the daemon to finish: returns once a shutdown request
    /// (wire or [`Daemon::stop`]) has drained the queue and every
    /// thread has exited. Removes the socket file.
    pub fn join(mut self) -> ServiceStats {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let _ = std::fs::remove_file(&self.inner.cfg.socket);
        self.inner.stats()
    }
}

impl Inner {
    fn stats(&self) -> ServiceStats {
        let st = self.state.lock().unwrap();
        ServiceStats {
            jobs_done: self.jobs_done.load(Ordering::Relaxed),
            jobs_denied: self.jobs_denied.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            jobs_rejected: self.jobs_rejected.load(Ordering::Relaxed),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            queue_depth: st.queue.len() as u64,
            running: st.running as u64,
            workers: self.cfg.workers as u64,
        }
    }

    fn begin_shutdown(&self) {
        {
            let mut st = self.state.lock().unwrap();
            st.shutdown = true;
        }
        self.work.notify_all();
        // Unblock the acceptor's blocking accept with one throwaway
        // connection; it re-checks the flag per iteration.
        let _ = UnixStream::connect(&self.cfg.socket);
    }

    /// Admission control: runs under the state lock, never blocks on
    /// job execution. Returns the receiver to wait on, or the typed
    /// refusal to send straight back.
    // The Err IS the wire message; one refusal per connection round
    // trip, so its size is not on a hot path.
    #[allow(clippy::result_large_err)]
    fn admit(&self, sub: Submission) -> Result<(u64, mpsc::Receiver<Response>), Response> {
        let mut st = self.state.lock().unwrap();
        if st.shutdown {
            return Err(Response::Error {
                message: "daemon is shutting down".to_string(),
            });
        }
        if st.queue.len() >= self.cfg.max_queue {
            self.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(Response::Busy {
                reason: BusyReason::Queue,
                depth: st.queue.len() as u64,
                limit: self.cfg.max_queue as u64,
            });
        }
        let inflight = st.inflight.entry(sub.tenant.clone()).or_insert(0);
        if *inflight >= self.cfg.tenant_quota {
            self.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(Response::Busy {
                reason: BusyReason::Quota,
                depth: *inflight as u64,
                limit: self.cfg.tenant_quota as u64,
            });
        }
        *inflight += 1;
        let id = self.next_job.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        st.queue.push_back(Job { id, sub, done: tx });
        drop(st);
        self.work.notify_one();
        Ok((id, rx))
    }
}

fn accept_loop(inner: &Arc<Inner>, listener: UnixListener) {
    for conn in listener.incoming() {
        if inner.state.lock().unwrap().shutdown {
            return;
        }
        let Ok(stream) = conn else { continue };
        let inner = Arc::clone(inner);
        // Handlers are detached: they exit when their client hangs up,
        // and they hold only Arc'd state.
        let _ = std::thread::Builder::new()
            .name("mscd-conn".to_string())
            .spawn(move || handle_connection(&inner, stream));
    }
}

fn handle_connection(inner: &Arc<Inner>, stream: UnixStream) {
    let Ok(read_half) = stream.try_clone() else { return };
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // Never buffer more of one line than the cap (and one byte to see
        // it was crossed).
        let cap = MAX_REQUEST_BYTES as u64 + 1;
        if !matches!((&mut reader).take(cap).read_until(b'\n', &mut buf), Ok(n) if n > 0) {
            return;
        }
        if buf.len() > MAX_REQUEST_BYTES && buf.last() != Some(&b'\n') {
            let message =
                format!("request line over {MAX_REQUEST_BYTES} bytes; closing the connection");
            let _ = writeln!(writer, "{}", Response::Error { message }.to_line());
            return;
        }
        let Ok(line) = std::str::from_utf8(&buf) else { return };
        let line = line.strip_suffix('\n').unwrap_or(line);
        let line = line.strip_suffix('\r').unwrap_or(line);
        if line.trim().is_empty() {
            continue;
        }
        let response = match Request::from_line(line) {
            Err(e) => Response::Error { message: e },
            Ok(Request::Ping) => Response::Pong {
                version: PROTO_VERSION,
                jobs_done: inner.jobs_done.load(Ordering::Relaxed),
            },
            Ok(Request::Stats) => Response::Stats(inner.stats()),
            Ok(Request::Shutdown) => Response::ShuttingDown,
            Ok(Request::Submit(sub)) => match inner.admit(sub) {
                Err(refusal) => refusal,
                // Block this connection (only) until the job is done.
                Ok((_, rx)) => rx.recv().unwrap_or(Response::Error {
                    message: "job dropped during shutdown".to_string(),
                }),
            },
        };
        let sent = writeln!(writer, "{}", response.to_line()).and_then(|_| writer.flush());
        // The reply goes out before the shutdown begins: once it has, the
        // process serving this daemon may exit under a slower handler.
        if matches!(response, Response::ShuttingDown) {
            inner.begin_shutdown();
        }
        if sent.is_err() {
            return;
        }
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    // One-time pool warmup: run jobs on this thread reuse these parked
    // helpers instead of paying spawn latency per job.
    if inner.cfg.pool_threads > 0 {
        msc_exec::pool::warm_local_pool(inner.cfg.pool_threads);
    }
    loop {
        let job = {
            let mut st = inner.state.lock().unwrap();
            loop {
                if let Some(job) = st.queue.pop_front() {
                    st.running += 1;
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = inner.work.wait(st).unwrap();
            }
        };
        let response = execute_job(inner, job.id, &job.sub);
        {
            let mut st = inner.state.lock().unwrap();
            st.running -= 1;
            if let Some(n) = st.inflight.get_mut(&job.sub.tenant) {
                *n = n.saturating_sub(1);
            }
        }
        match &response {
            Response::Done(_) => inner.jobs_done.fetch_add(1, Ordering::Relaxed),
            Response::Denied { .. } => inner.jobs_denied.fetch_add(1, Ordering::Relaxed),
            _ => inner.jobs_failed.fetch_add(1, Ordering::Relaxed),
        };
        // The client may have hung up; the job's effects (cache entry,
        // counters) stand either way.
        let _ = job.done.send(response);
    }
}

/// Run one job under its own telemetry session. Never panics on bad
/// input: parse errors become `Error`, lint denials become `Denied`.
fn execute_job(inner: &Arc<Inner>, id: u64, sub: &Submission) -> Response {
    let hub = TelemetryHub::new();
    hub.set_enabled(true);
    let _guard = install_thread_hub(Arc::clone(&hub));
    let sampler = inner.cfg.metrics_dir.as_ref().and_then(|dir| {
        let path = dir.join(format!("job_{id}.jsonl"));
        SamplerConfig::from_millis(25, &path)
            .ok()
            .and_then(|cfg| Sampler::start(Arc::clone(&hub), cfg).ok())
    });
    let result = job_body(inner, id, sub, &hub);
    let metrics_path = sampler.map(|s| {
        let sum = s.stop();
        sum.jsonl_path.display().to_string()
    });
    match result {
        Ok(mut done) => {
            done.metrics_path = metrics_path;
            Response::Done(done)
        }
        Err(refusal) => refusal,
    }
}

// The Err IS the wire message (Denied/Busy/Error); one per job, so its
// size is not on a hot path.
#[allow(clippy::result_large_err)]
fn job_body(
    inner: &Arc<Inner>,
    id: u64,
    sub: &Submission,
    hub: &Arc<TelemetryHub>,
) -> Result<JobDone, Response> {
    if sub.sleep_ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(sub.sleep_ms.min(10_000)));
    }
    let parsed = msc_core::parse::parse_unchecked(&sub.source)
        .map_err(|e| Response::Error { message: e.to_string() })?;
    let program = parsed.program;
    let target = sub.target.or(parsed.target).unwrap_or(Target::Cpu);

    // Front door: the one check of the job. Deny-level findings stop it
    // before codegen or execution, as structured diagnostics.
    let checked = msc_lint::check(&program, Some(target)).map_err(|report| Response::Denied {
        program: program.name.clone(),
        report: Json::parse(&report.to_json()).unwrap_or(Json::Null),
    })?;

    let (pkg, cache_hit) = inner
        .cache
        .get_or_compile(&sub.source, &checked, target)
        .map_err(|message| Response::Error { message })?;

    let (mut steps, mut tiles) = (None, None);
    if sub.run {
        let sched = effective_schedule(&program, target);
        let plan = ExecPlan::lower(&sched, program.grid.ndim(), &program.grid.shape)
            .map_err(|e| Response::Error { message: e.to_string() })?;
        let init: Grid<f64> = Grid::random(&program.grid.shape, &program.grid.halo, 42);
        let (_, stats) = run_program(&checked, &Executor::Tiled(plan), &init)
            .map_err(|e| Response::Error { message: e.to_string() })?;
        steps = Some(stats.steps as u64);
        tiles = Some(stats.tiles_executed);
    }

    let counters = hub
        .snapshot()
        .iter()
        .filter(|(_, v)| *v > 0)
        .map(|(c, v)| (c.name().to_string(), v))
        .collect();

    Ok(JobDone {
        job: id,
        program: program.name,
        target: target.as_str().to_string(),
        cache_hit,
        loc: pkg.total_loc() as u64,
        files: pkg.file_names().iter().map(|f| f.to_string()).collect(),
        steps,
        tiles,
        counters,
        metrics_path: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_job_that_misses_the_cache_lints_once_on_its_hub() {
        let socket =
            std::env::temp_dir().join(format!("mscd-one-lint-{}.sock", std::process::id()));
        let daemon = Daemon::start(ServiceConfig {
            socket,
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let sub = Submission {
            source: "stencil once {
                grid B: f64[12, 12, 12] halo 1 window 2;
                kernel S = 0.4*B[0,0,0] + 0.1*B[-1,0,0] + 0.1*B[1,0,0]
                         + 0.1*B[0,-1,0] + 0.1*B[0,1,0] + 0.1*B[0,0,-1] + 0.1*B[0,0,1];
                combine res[t] = 1.0*S[t-1];
                run 2;
                target cpu;
            }"
            .to_string(),
            run: true,
            ..Submission::default()
        };
        // The hub `execute_job` would make for this job, kept to read.
        let hub = TelemetryHub::new();
        hub.set_enabled(true);
        let guard = install_thread_hub(Arc::clone(&hub));
        let done = job_body(&daemon.inner, 1, &sub, &hub).unwrap();
        drop(guard);
        assert_eq!((done.cache_hit, done.steps), (false, Some(2)));
        let (spans, _) = hub.collect_spans();
        assert_eq!(spans.iter().filter(|s| s.name == "lint").count(), 1);
        daemon.stop();
        daemon.join();
    }
}
