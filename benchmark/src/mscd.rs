//! `mscd_mix`: what an `mscd` client waits for. An in-process daemon
//! (2 workers, queue 16, quota 4), two client connections, two tenants,
//! each client a closed loop: the next submission leaves only when the
//! previous response is back.
//!
//! A run is a series of daemon lifetimes. Set-up is the cold phase:
//! start, connect, ping, then 512 distinct cheap sources once each,
//! compile only, every one a cache miss. The measured phase is warm: 480
//! submissions per client drawn by seed from a 16-source hot set,
//! compiled from cache and run, 5 % of them a program the verifier must
//! deny. Then the daemon is shut down and the next lifetime begins.

use crate::common::{read_input, Ctx, Reps, Rng, Tally, OUT_DIR};
use crate::layers::{self, Own};
use crate::spans::Recorder;
use crate::stats::{median, quiet};
use msc_service::{Client, Daemon, Request, Response, ServiceConfig, ServiceStats, Submission};
use std::path::PathBuf;
use std::time::Instant;

const CLIENTS: usize = 2;
const HOT_SET: usize = 16;
const COLD_SET: usize = 512;
const DENY_PERCENT: u64 = 5;

/// Warm submissions per client in one daemon lifetime. Today's daemon
/// keeps about 0.85 MB per run job for as long as its worker threads
/// live, and past roughly 1200 jobs its latency steps up sixfold; a
/// lifetime stays on the near side of that step, so latency measures the
/// service and `peak_rss_mb` measures what it keeps, over the same job
/// sequence on every run. A run is as many lifetimes as fit `--seconds`.
const WARM_PER_CLIENT: usize = 480;

/// Grid edge, tile rows and steps of every pool program: 4096 points,
/// four tiles a step, four steps.
const EDGE: u64 = 64;
const TILE_ROWS: u64 = 16;
const STEPS: u64 = 4;

/// One pool program: a 2d5pt star whose centre weight is the only thing
/// that differs, so every source hashes apart and costs the same.
fn pool_source(name: &str, variant: u64) -> String {
    let centre = 0.5 + variant as f64 * 1e-6;
    let side = (1.0 - centre) / 4.0;
    format!(
        "stencil {name} {{\n    grid B: f64[{EDGE}, {EDGE}] halo 1 window 3;\n    \
         kernel S = {centre}*B[0,0] + {side}*B[-1,0] + {side}*B[1,0] + {side}*B[0,-1] + {side}*B[0,1];\n    \
         combine res[t] = 0.6*S[t-1] + 0.4*S[t-2];\n    \
         schedule {{ tile {TILE_ROWS} {EDGE}; reorder xo yo xi yi; parallel xo 1; }}\n    \
         run {STEPS};\n    target cpu;\n}}\n"
    )
}

/// What the input text says the response must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Compiled, not run.
    Compiled,
    /// Compiled and run: step, tile and point counts follow from the text.
    Ran {
        steps: u64,
        tiles: u64,
        points: u64,
    },
    Denied,
}

const POOL_RAN: Expect = Expect::Ran {
    steps: STEPS,
    tiles: STEPS * (EDGE / TILE_ROWS),
    points: STEPS * EDGE * EDGE,
};

/// Is `response` the kind and content the input calls for? `Busy` and
/// `Error` never are, nor is `Done` for a program that must be denied.
pub fn response_ok(response: &Response, expect: Expect) -> bool {
    match (response, expect) {
        (Response::Done(done), Expect::Compiled) => done.steps.is_none() && done.loc > 0,
        (
            Response::Done(done),
            Expect::Ran {
                steps,
                tiles,
                points,
            },
        ) => {
            done.steps == Some(steps)
                && done.tiles == Some(tiles)
                && done
                    .counters
                    .iter()
                    .any(|(name, v)| name == "computed_points" && *v == points)
        }
        (Response::Denied { .. }, Expect::Denied) => true,
        _ => false,
    }
}

struct Service {
    daemon: Daemon,
    clients: Vec<Client>,
}

fn start(tag: &str) -> Result<Service, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    // Relative, so the path stays under the 108 bytes a Unix socket
    // address holds wherever the checkout lies.
    let socket = PathBuf::from(OUT_DIR).join(format!("mscd_{}_{tag}.sock", std::process::id()));
    let daemon = Daemon::start(ServiceConfig {
        socket,
        workers: 2,
        max_queue: 16,
        tenant_quota: 4,
        metrics_dir: None,
        pool_threads: 0,
    })?;
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        let mut c = Client::connect(daemon.socket())?;
        match c.call(&Request::Ping)? {
            Response::Pong { .. } => clients.push(c),
            other => return Err(format!("ping answered {other:?}")),
        }
    }
    Ok(Service { daemon, clients })
}

impl Service {
    /// Hang up, ask the daemon to stop, and wait for its threads.
    fn shutdown(self) -> ServiceStats {
        drop(self.clients);
        self.daemon.stop();
        self.daemon.join()
    }
}

fn submit(
    rec: &Recorder,
    op: u64,
    client: &mut Client,
    tenant: &str,
    source: &str,
    run: bool,
) -> (Result<Response, String>, f64) {
    let t0 = Instant::now();
    let _op = rec.span("op.submit", op);
    let request = Request::Submit(Submission {
        tenant: tenant.to_string(),
        source: source.to_string(),
        target: None,
        run,
        sleep_ms: 0,
    });
    let response = {
        let _s = rec.span("service.submit", op);
        client.call(&request)
    };
    (response, t0.elapsed().as_secs_f64())
}

/// Each client walks its own list of `(source, run?, expectation)`, one
/// at a time, until the list ends. Returns every latency, the tally and
/// the wall of the whole phase.
fn closed_loop(
    rec: &Recorder,
    clients: &mut [Client],
    next: &(dyn Fn(usize, usize) -> Option<(String, bool, Expect)> + Sync),
) -> (Vec<f64>, Tally, f64) {
    let t0 = Instant::now();
    let per_client: Vec<(Vec<f64>, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let tenant = format!("tenant{c}");
                    let (mut lat, mut tally) = (Vec::new(), Tally::default());
                    while let Some((source, run, expect)) = next(c, lat.len()) {
                        let (response, t) = submit(
                            rec,
                            (lat.len() * CLIENTS + c) as u64,
                            client,
                            &tenant,
                            &source,
                            run,
                        );
                        tally.note(response.is_ok_and(|r| response_ok(&r, expect)));
                        lat.push(t);
                    }
                    (lat, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    let mut lat = Vec::new();
    for (l, t) in per_client {
        lat.extend(l);
        tally.merge(t);
    }
    (lat, tally, wall)
}

struct Pool {
    cold: Vec<String>,
    hot: Vec<String>,
    deny: String,
    seed: u64,
}

impl Pool {
    fn new(ctx: &Ctx) -> Result<Pool, String> {
        // The seed moves the whole pool: other seeds, other source texts.
        let base = (ctx.args.seed % 1000) * 10_000;
        let cold_n = if ctx.args.smoke { 32 } else { COLD_SET };
        Ok(Pool {
            cold: (0..cold_n as u64)
                .map(|i| pool_source(&format!("cold{i}"), base + 100 + i))
                .collect(),
            hot: (0..HOT_SET as u64)
                .map(|i| pool_source(&format!("hot{i}"), base + i))
                .collect(),
            deny: read_input(ctx.args.smoke, "deny.msc")?,
            seed: ctx.args.seed,
        })
    }

    /// The `n`-th warm submission of client `c`: drawn from the seed, so
    /// the same seed sends the same sequence whatever the timing.
    fn warm(&self, c: usize, n: usize) -> (String, bool, Expect) {
        let mut rng = Rng::new(self.seed ^ ((c as u64) << 32) ^ n as u64);
        if rng.next_u64() % 100 < DENY_PERCENT {
            (self.deny.clone(), true, Expect::Denied)
        } else {
            (self.hot[rng.below(self.hot.len())].clone(), true, POOL_RAN)
        }
    }

    /// Every cold source once, split between the clients.
    fn cold_phase(&self, rec: &Recorder, service: &mut Service) -> (Vec<f64>, Tally) {
        let (lat, tally, _) = closed_loop(rec, &mut service.clients, &|c, n| {
            self.cold
                .get(n * CLIENTS + c)
                .map(|s| (s.clone(), false, Expect::Compiled))
        });
        (lat, tally)
    }
}

/// One daemon lifetime: start, cold phase (together the set-up
/// sample), the discarded hot round, and `per_client` warm submissions
/// from each client starting at sequence number `from`.
struct Lifetime {
    setup_s: f64,
    cold_lat: Vec<f64>,
    service: Service,
}

fn begin_lifetime(ctx: &mut Ctx, pool: &Pool, tag: usize) -> Result<Lifetime, String> {
    let t0 = Instant::now();
    let mut service = start(&tag.to_string())?;
    let (cold_lat, tally) = pool.cold_phase(&ctx.rec, &mut service);
    let setup_s = t0.elapsed().as_secs_f64();
    ctx.tally.merge(tally);
    // Discarded: every hot source once per client, so the warm phase
    // starts with the hot set compiled and the workers' pools spawned.
    let (_, tally, _) = closed_loop(&ctx.rec, &mut service.clients, &|_, n| {
        pool.hot.get(n).map(|s| (s.clone(), true, POOL_RAN))
    });
    ctx.tally.merge(tally);
    Ok(Lifetime {
        setup_s,
        cold_lat,
        service,
    })
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let pool = Pool::new(ctx)?;

    if ctx.args.trace {
        let Lifetime { mut service, .. } = begin_lifetime(ctx, &pool, 0)?;
        // Eight batches stay inside one lifetime's warm budget.
        let batch = if ctx.args.smoke {
            20
        } else {
            WARM_PER_CLIENT / 8
        };
        let mut sent = 0usize;
        let main = layers::traced_pairs(ctx, if ctx.args.smoke { 2 } else { 4 }, |ctx, _| {
            let from = sent;
            let (lat, tally, _) = closed_loop(&ctx.rec, &mut service.clients, &|c, n| {
                (n < batch).then(|| pool.warm(c, from + n))
            });
            sent += batch;
            ctx.tally.merge(tally);
            let p50 = median(&lat);
            Ok((p50, p50))
        })?;
        let stats = service.shutdown();
        let hot = [pool.hot[0].clone()];
        layers::account(
            ctx,
            "mscd_mix",
            &main,
            Own {
                run_source: Some((&pool.hot[0], None)),
                service_source: Some(&pool.hot[0]),
                ..Own::probe_only(&hot)
            },
        )?;
        // This workload's own traffic, not the one-client probe, is the
        // account of the cache and of admission control.
        set_service_counts(ctx, &stats);
        return Ok(());
    }

    let per_client = if ctx.args.smoke { 100 } else { WARM_PER_CLIENT };
    let lives = Reps::new(&ctx.args, 3, 1);
    let (mut setup_s, mut cold_lat, mut lat, mut p50_s, mut job_s) =
        (vec![], vec![], vec![], vec![], vec![]);
    while lives.more(setup_s.len()) {
        let life = setup_s.len();
        let Lifetime {
            setup_s: s,
            cold_lat: cold,
            mut service,
        } = begin_lifetime(ctx, &pool, life)?;
        let from = life * per_client;
        let (warm, tally, wall) = closed_loop(&ctx.rec, &mut service.clients, &|c, n| {
            (n < per_client).then(|| pool.warm(c, from + n))
        });
        ctx.tally.merge(tally);
        let stats = service.shutdown();
        // The daemon's own books must agree with what the clients saw.
        ctx.tally.note(
            stats.jobs_rejected == 0
                && stats.jobs_failed == 0
                && stats.cache_misses == (pool.cold.len() + pool.hot.len()) as u64,
        );
        p50_s.push(median(&warm));
        job_s.push(wall / warm.len() as f64);
        setup_s.push(s);
        cold_lat.extend(cold);
        lat.extend(warm);
    }
    ctx.info("submit_cold_p50_ms", median(&cold_lat) * 1e3, "ms");
    ctx.info_tail("submit_warm_p99_ms", &lat, 0.99);
    // One sample per daemon lifetime: its median warm latency, and its
    // warm wall per response with both clients going.
    ctx.set_end_to_end(&setup_s, &p50_s, 1.0 / quiet(&job_s));
    Ok(())
}

fn set_service_counts(ctx: &mut Ctx, stats: &ServiceStats) {
    let lookups = (stats.cache_hits + stats.cache_misses).max(1);
    let answered = stats.jobs_done + stats.jobs_denied + stats.jobs_failed + stats.jobs_rejected;
    ctx.set(
        "service.cache_hit_ratio",
        stats.cache_hits as f64 / lookups as f64,
    );
    ctx.set(
        "service.busy_share",
        stats.jobs_rejected as f64 / answered.max(1) as f64,
    );
    ctx.set("service.denied", stats.jobs_denied as f64);
}

/// service: one client against a fresh daemon. Ping, the wire format
/// alone, then a compile-only hit, a compile-only miss and a run job of
/// `source`, each many times.
pub fn service_account(ctx: &mut Ctx, source: &str) -> Result<(), String> {
    let n = if ctx.args.smoke { 20 } else { 500 };
    let t0 = Instant::now();
    let mut service = start("probe")?;
    let start_s = t0.elapsed().as_secs_f64();
    service.clients.truncate(1);
    let client = &mut service.clients[0];

    let mut ping = vec![];
    for _ in 0..n {
        let t0 = Instant::now();
        let pong = client.call(&Request::Ping);
        ping.push(t0.elapsed().as_secs_f64());
        ctx.tally.note(matches!(pong, Ok(Response::Pong { .. })));
    }

    let mut timed_submits =
        |ctx: &mut Ctx, count: usize, run: bool, expect: Expect, text: &dyn Fn(usize) -> String| {
            let mut lat = vec![];
            for i in 0..count {
                let (response, t) = submit(&ctx.rec, i as u64, client, "probe", &text(i), run);
                ctx.tally
                    .note(response.is_ok_and(|r| response_ok(&r, expect)));
                lat.push(t);
            }
            median(&lat)
        };
    // A trailing comment changes the content hash and nothing else.
    let miss = timed_submits(ctx, n, false, Expect::Compiled, &|i| {
        format!("{source}// variant {i}\n")
    });
    let hit = timed_submits(ctx, n, false, Expect::Compiled, &|_| source.to_string());
    let f = crate::front::front(&ctx.rec, 0, source)?;
    let ran = Expect::Ran {
        steps: f.program.timesteps as u64,
        tiles: (f.program.timesteps * f.plan.num_tiles()) as u64,
        points: crate::front::point_updates(&f.program) as u64,
    };
    let rss_before = crate::host::rss_kb();
    let run = timed_submits(ctx, n.min(200), true, ran, &|_| source.to_string());
    let rss_per_job = (crate::host::rss_kb() - rss_before) / n.min(200) as f64;
    let deny = read_input(ctx.args.smoke, "deny.msc")?;
    timed_submits(ctx, 1, true, Expect::Denied, &|_| deny.clone());

    // The same source through the same front-end calls, from outside.
    let (mut parse, mut lint, mut proto) = (vec![], vec![], vec![]);
    for _ in 0..n {
        let t0 = Instant::now();
        let parsed = msc_core::parse::parse_unchecked(source).map_err(|e| format!("parse: {e}"))?;
        parse.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        std::hint::black_box(msc_lint::lint_program(&parsed.program, parsed.target));
        lint.push(t0.elapsed().as_secs_f64());

        let request = Request::Submit(Submission {
            source: source.to_string(),
            ..Submission::default()
        });
        let response = Response::Pong {
            version: 1,
            jobs_done: 0,
        };
        let t0 = Instant::now();
        let ok = Request::from_line(&request.to_line()).is_ok_and(|r| r == request)
            && Response::from_line(&response.to_line()).is_ok_and(|r| r == response);
        proto.push(t0.elapsed().as_secs_f64());
        ctx.tally.note(ok);
    }

    let stats = service.shutdown();
    ctx.tally.note(
        stats.jobs_rejected == 0 && stats.jobs_failed == 0 && stats.cache_misses == n as u64 + 1,
    );
    let us = |s: f64| s * 1e6;
    ctx.set("service.start_ms", start_s * 1e3);
    ctx.set("service.ping_us", us(median(&ping)));
    ctx.set("service.proto_roundtrip_us", us(median(&proto)));
    ctx.set("service.submit_hit_norun_us", us(hit));
    ctx.set("service.submit_miss_norun_us", us(miss));
    ctx.set("service.submit_run_us", us(run));
    ctx.set(
        "service.overhead_us",
        us(hit - median(&ping) - median(&parse) - median(&lint)),
    );
    // What the process keeps per run job once the job is answered.
    ctx.set("service.rss_kb_per_job", rss_per_job);
    set_service_counts(ctx, &stats);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_service::{BusyReason, JobDone};

    fn done(steps: Option<u64>, tiles: Option<u64>, points: u64) -> Response {
        Response::Done(JobDone {
            loc: 100,
            steps,
            tiles,
            counters: vec![("computed_points".to_string(), points)],
            ..JobDone::default()
        })
    }

    #[test]
    fn the_expected_kinds_pass() {
        assert!(response_ok(&done(None, None, 0), Expect::Compiled));
        assert!(response_ok(&done(Some(4), Some(16), 16384), POOL_RAN));
        assert!(response_ok(&denied(), Expect::Denied));
    }

    /// `Denied` carries the program's own JSON type; from outside, the
    /// wire format is the way to one.
    fn denied() -> Response {
        Response::from_line(r#"{"kind":"denied","program":"p","report":{"denies":1}}"#).unwrap()
    }

    #[test]
    fn busy_counts_as_failed_and_fails_the_run() {
        let busy = Response::Busy {
            reason: BusyReason::Queue,
            depth: 16,
            limit: 16,
        };
        let mut tally = Tally::default();
        tally.note(response_ok(&done(Some(4), Some(16), 16384), POOL_RAN));
        assert_eq!(tally.exit_code(), 0);
        for expect in [Expect::Compiled, POOL_RAN, Expect::Denied] {
            tally.note(response_ok(&busy, expect));
        }
        assert_eq!((tally.attempted, tally.failed), (4, 3));
        assert!(tally.failed_share() > 0.0);
        assert_ne!(tally.exit_code(), 0);
    }

    #[test]
    fn wrong_counts_and_wrong_kinds_fail() {
        assert!(!response_ok(&done(Some(4), Some(15), 16384), POOL_RAN));
        assert!(!response_ok(&done(Some(4), Some(16), 16383), POOL_RAN));
        assert!(!response_ok(
            &done(Some(4), Some(16), 16384),
            Expect::Denied
        ));
        assert!(!response_ok(&denied(), POOL_RAN));
        assert!(!response_ok(
            &Response::Error {
                message: "x".into()
            },
            Expect::Compiled
        ));
    }

    #[test]
    fn pool_sources_differ_and_parse() {
        let a = pool_source("a", 1);
        assert_ne!(a, pool_source("a", 2));
        let f = crate::front::front(&Recorder::new(), 0, &a).unwrap();
        assert_eq!(f.plan.num_tiles() as u64, EDGE / TILE_ROWS);
        assert_eq!(f.plan.n_threads, 1);
    }
}
