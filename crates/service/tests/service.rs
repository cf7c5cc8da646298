//! End-to-end daemon tests: one mscd, many concurrent clients over its
//! Unix socket, exercising the compile cache, the lint front door,
//! admission control, per-session telemetry isolation, and graceful
//! shutdown.

use msc_trace::Json;
use msc_service::{
    BusyReason, Client, Daemon, Request, Response, ServiceConfig, Submission, MAX_REQUEST_BYTES,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const COMPILE_SRC: &str = "\
stencil svc_3d7pt {
    grid B: f64[16, 16, 16] halo 1 window 2;

    kernel S = 0.4*B[0,0,0]
             + 0.1*B[-1,0,0] + 0.1*B[1,0,0]
             + 0.1*B[0,-1,0] + 0.1*B[0,1,0]
             + 0.1*B[0,0,-1] + 0.1*B[0,0,1];

    combine res[t] = 1.0*S[t-1];

    run 3;
    target cpu;
}
";

/// Radius-2 taps against a 1-wide halo: MSC-L101, deny.
const DENY_SRC: &str = "\
stencil svc_bad_halo {
    grid B: f64[32, 32] halo 1 window 2;

    kernel S = 0.2*B[0,0]
             + 0.2*B[-2,0] + 0.2*B[2,0]
             + 0.2*B[0,-2] + 0.2*B[0,2];

    combine res[t] = 1.0*S[t-1];

    run 2;
}
";

fn run_src(steps: u64) -> String {
    format!(
        "\
stencil svc_run_{steps} {{
    grid B: f64[12, 12, 12] halo 1 window 2;

    kernel S = 0.4*B[0,0,0]
             + 0.1*B[-1,0,0] + 0.1*B[1,0,0]
             + 0.1*B[0,-1,0] + 0.1*B[0,1,0]
             + 0.1*B[0,0,-1] + 0.1*B[0,0,1];

    combine res[t] = 1.0*S[t-1];

    run {steps};
    target cpu;
}}
"
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mscd-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn submit(sub: Submission) -> Request {
    Request::Submit(sub)
}

fn call_on(socket: &std::path::Path, req: &Request) -> Response {
    Client::connect(socket).unwrap().call(req).unwrap()
}

/// Poll daemon stats until `pred` holds (the queue/running transitions
/// are asynchronous; tests must not race them).
fn wait_for(daemon: &Daemon, what: &str, pred: impl Fn(&msc_service::ServiceStats) -> bool) {
    let t0 = Instant::now();
    loop {
        if pred(&daemon.stats()) {
            return;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "timed out waiting for {what}: {:?}",
            daemon.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The acceptance scenario: eight concurrent clients through one mscd.
/// Six submit the identical program (compile cache), two run different
/// step counts (per-session counter + metrics isolation).
#[test]
fn eight_concurrent_clients_share_cache_and_isolate_sessions() {
    let dir = temp_dir("eight");
    let metrics_dir = dir.join("metrics");
    let daemon = Daemon::start(ServiceConfig {
        socket: dir.join("mscd.sock"),
        workers: 4,
        max_queue: 16,
        tenant_quota: 4,
        metrics_dir: Some(metrics_dir.clone()),
        pool_threads: 2,
    })
    .unwrap();
    let socket = daemon.socket().to_path_buf();

    let mut handles = Vec::new();
    // Six identical compile-only submissions from six tenants.
    for i in 0..6 {
        let socket = socket.clone();
        handles.push(std::thread::spawn(move || {
            call_on(
                &socket,
                &submit(Submission {
                    tenant: format!("compile-{i}"),
                    source: COMPILE_SRC.to_string(),
                    ..Submission::default()
                }),
            )
        }));
    }
    // Two run jobs with different step counts.
    let run_steps = [5u64, 9u64];
    for &steps in &run_steps {
        let socket = socket.clone();
        handles.push(std::thread::spawn(move || {
            call_on(
                &socket,
                &submit(Submission {
                    tenant: format!("run-{steps}"),
                    source: run_src(steps),
                    run: true,
                    ..Submission::default()
                }),
            )
        }));
    }
    let responses: Vec<Response> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let mut compile_hits = 0;
    let mut seen_metrics = std::collections::HashSet::new();
    for resp in &responses {
        let Response::Done(done) = resp else {
            panic!("expected Done, got {resp:?}");
        };
        assert!(done.loc > 0);
        assert!(!done.files.is_empty());
        if done.program == "svc_3d7pt" {
            compile_hits += usize::from(done.cache_hit);
        } else {
            // A run job's counters come from its own hub: the steps
            // counter must equal *this* job's step count, not the sum
            // over the concurrent jobs.
            let steps = done.steps.expect("run job reports steps");
            assert!(run_steps.contains(&steps), "unexpected steps {steps}");
            let counted = done
                .counters
                .iter()
                .find(|(name, _)| name == "steps")
                .map(|(_, v)| *v)
                .expect("steps counter in job telemetry");
            assert_eq!(counted, steps, "telemetry leaked across sessions");
            assert!(done.tiles.unwrap() > 0);
        }
        // Every job got its own metrics stream.
        let path = done.metrics_path.as_ref().expect("per-job metrics stream");
        assert!(seen_metrics.insert(path.clone()), "metrics path reused: {path}");
        let text = std::fs::read_to_string(path).unwrap();
        assert!(
            text.lines().next().unwrap_or("").contains("msc-metrics-v1"),
            "not a metrics stream: {path}"
        );
    }
    // Six identical submissions serialize through the cache: exactly
    // one miss, five hits.
    assert_eq!(compile_hits, 5, "compile cache hits");
    let stats = daemon.stats();
    assert_eq!(stats.jobs_done, 8);
    assert!(stats.cache_hits >= 5);
    // The two run jobs have distinct sources -> misses, plus the one
    // compile miss.
    assert_eq!(stats.cache_misses, 3);

    daemon.stop();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lint_deny_returns_structured_diagnostics_and_daemon_survives() {
    let dir = temp_dir("deny");
    let daemon = Daemon::start(ServiceConfig {
        socket: dir.join("mscd.sock"),
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let socket = daemon.socket().to_path_buf();

    let mut client = Client::connect(&socket).unwrap();
    let resp = client
        .call(&submit(Submission {
            tenant: "bad".to_string(),
            source: DENY_SRC.to_string(),
            ..Submission::default()
        }))
        .unwrap();
    let Response::Denied { program, report } = resp else {
        panic!("expected Denied, got {resp:?}");
    };
    assert_eq!(program, "svc_bad_halo");
    // The report is the lint run's full structured JSON document.
    let codes: Vec<&str> = report
        .get("diagnostics")
        .and_then(Json::as_arr)
        .expect("diagnostics array")
        .iter()
        .filter_map(|d| d.get("code").and_then(Json::as_str))
        .collect();
    assert!(codes.contains(&"MSC-L101"), "missing MSC-L101 in {codes:?}");
    assert!(report.get("deny_count").and_then(Json::as_f64).unwrap() >= 1.0);

    // Same connection still works; the daemon is unharmed.
    let resp = client
        .call(&submit(Submission {
            tenant: "good".to_string(),
            source: COMPILE_SRC.to_string(),
            ..Submission::default()
        }))
        .unwrap();
    assert!(matches!(resp, Response::Done(_)), "got {resp:?}");
    assert!(matches!(client.call(&Request::Ping).unwrap(), Response::Pong { .. }));
    let stats = daemon.stats();
    assert_eq!((stats.jobs_done, stats.jobs_denied), (1, 1));

    daemon.stop();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queue_overflow_yields_typed_busy() {
    let dir = temp_dir("busy-queue");
    let daemon = Daemon::start(ServiceConfig {
        socket: dir.join("mscd.sock"),
        workers: 1,
        max_queue: 1,
        tenant_quota: 4,
        metrics_dir: None,
        pool_threads: 0,
    })
    .unwrap();
    let socket = daemon.socket().to_path_buf();
    let slow = |tenant: &str| {
        submit(Submission {
            tenant: tenant.to_string(),
            source: COMPILE_SRC.to_string(),
            sleep_ms: 1500,
            ..Submission::default()
        })
    };

    // Occupy the single worker...
    let occupying = {
        let socket = socket.clone();
        let req = slow("hog");
        std::thread::spawn(move || call_on(&socket, &req))
    };
    wait_for(&daemon, "the worker to pick up the first job", |s| {
        s.running == 1 && s.queue_depth == 0
    });
    // ...fill the 1-deep queue...
    let queued = {
        let socket = socket.clone();
        let req = slow("hog");
        std::thread::spawn(move || call_on(&socket, &req))
    };
    wait_for(&daemon, "the queue to fill", |s| s.queue_depth == 1);

    // ...and the next submission bounces with a typed Busy{queue},
    // regardless of tenant. The daemon keeps serving.
    let resp = call_on(&socket, &slow("someone-else"));
    assert_eq!(
        resp,
        Response::Busy { reason: BusyReason::Queue, depth: 1, limit: 1 }
    );
    assert!(matches!(call_on(&socket, &Request::Ping), Response::Pong { .. }));

    assert!(matches!(occupying.join().unwrap(), Response::Done(_)));
    assert!(matches!(queued.join().unwrap(), Response::Done(_)));
    assert_eq!(daemon.stats().jobs_rejected, 1);

    daemon.stop();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tenant_quota_yields_typed_busy_while_others_get_through() {
    let dir = temp_dir("busy-quota");
    let daemon = Daemon::start(ServiceConfig {
        socket: dir.join("mscd.sock"),
        workers: 2,
        max_queue: 8,
        tenant_quota: 1,
        metrics_dir: None,
        pool_threads: 0,
    })
    .unwrap();
    let socket = daemon.socket().to_path_buf();

    // One slow job puts "hog" at its quota of 1.
    let occupying = {
        let socket = socket.clone();
        let req = submit(Submission {
            tenant: "hog".to_string(),
            source: COMPILE_SRC.to_string(),
            sleep_ms: 1500,
            ..Submission::default()
        });
        std::thread::spawn(move || call_on(&socket, &req))
    };
    wait_for(&daemon, "the hog job to be in flight", |s| s.running == 1);

    // A second hog job bounces on quota; another tenant sails through
    // on the free worker.
    let resp = call_on(
        &socket,
        &submit(Submission {
            tenant: "hog".to_string(),
            source: COMPILE_SRC.to_string(),
            ..Submission::default()
        }),
    );
    assert_eq!(
        resp,
        Response::Busy { reason: BusyReason::Quota, depth: 1, limit: 1 }
    );
    let resp = call_on(
        &socket,
        &submit(Submission {
            tenant: "patient".to_string(),
            source: COMPILE_SRC.to_string(),
            ..Submission::default()
        }),
    );
    assert!(matches!(resp, Response::Done(_)), "got {resp:?}");

    assert!(matches!(occupying.join().unwrap(), Response::Done(_)));
    assert_eq!(daemon.stats().jobs_rejected, 1);

    daemon.stop();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_is_graceful_queued_jobs_finish() {
    let dir = temp_dir("shutdown");
    let daemon = Daemon::start(ServiceConfig {
        socket: dir.join("mscd.sock"),
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let socket = daemon.socket().to_path_buf();

    // A slow job in flight...
    let inflight = {
        let socket = socket.clone();
        let req = submit(Submission {
            tenant: "t".to_string(),
            source: COMPILE_SRC.to_string(),
            sleep_ms: 500,
            ..Submission::default()
        });
        std::thread::spawn(move || call_on(&socket, &req))
    };
    wait_for(&daemon, "job pickup", |s| s.running == 1);

    // ...then a wire shutdown: acknowledged immediately, but the job
    // still completes before the daemon exits.
    let resp = call_on(&socket, &Request::Shutdown);
    assert_eq!(resp, Response::ShuttingDown);
    assert!(matches!(inflight.join().unwrap(), Response::Done(_)));

    let stats = daemon.join();
    assert_eq!(stats.jobs_done, 1);
    // Socket file is gone after join.
    assert!(!socket.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn submissions_after_shutdown_are_refused() {
    let dir = temp_dir("after");
    let daemon = Daemon::start(ServiceConfig {
        socket: dir.join("mscd.sock"),
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let socket = daemon.socket().to_path_buf();
    // Keep one connection open from before the shutdown.
    let mut client = Client::connect(&socket).unwrap();
    assert_eq!(client.call(&Request::Shutdown).unwrap(), Response::ShuttingDown);
    let resp = client
        .call(&submit(Submission {
            tenant: "late".to_string(),
            source: COMPILE_SRC.to_string(),
            ..Submission::default()
        }))
        .unwrap();
    assert!(matches!(resp, Response::Error { .. }), "got {resp:?}");
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_denied_job_returns_the_full_report_on_the_wire() {
    // Byte for byte the line the daemon sent when it linted a job apart
    // from the check its run relied on: every finding, in pass order.
    const DENIED: &str = concat!(
        r#"{"kind":"denied","program":"svc_bad_halo","report":{"tool":"msc-lint","#,
        r#""program":"svc_bad_halo","diagnostics":[{"code":"MSC-L101","severity":"deny","#,
        r#""family":"halo","message":"declared halo 1 in dim 0 but the inferred footprint "#,
        r#"spans offsets -2..2 (needs halo 2); the sweep would read uninitialized or "#,
        r#"foreign memory at the domain boundary","context":"grid `B`","help":"widen the "#,
        r#"halo to 2 or reduce the kernel radius"},{"code":"MSC-L101","severity":"deny","#,
        r#""family":"halo","message":"declared halo 1 in dim 1 but the inferred footprint "#,
        r#"spans offsets -2..2 (needs halo 2); the sweep would read uninitialized or "#,
        r#"foreign memory at the domain boundary","context":"grid `B`","help":"widen the "#,
        r#"halo to 2 or reduce the kernel radius"}],"deny_count":2,"warn_count":0}}"#,
    );
    let dir = temp_dir("denied-line");
    let daemon = Daemon::start(ServiceConfig {
        socket: dir.join("mscd.sock"),
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let resp = call_on(
        daemon.socket(),
        &submit(Submission {
            source: DENY_SRC.to_string(),
            run: true,
            ..Submission::default()
        }),
    );
    assert_eq!(resp.to_line(), DENIED);
    daemon.stop();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_line_over_the_cap_gets_an_error_and_the_daemon_still_answers() {
    use std::io::{BufRead, BufReader, Write};
    let dir = temp_dir("long-line");
    let daemon = Daemon::start(ServiceConfig {
        socket: dir.join("mscd.sock"),
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    // 2 MiB and no newline: the handler stops reading at the cap, so the
    // rest of the write may meet a closed socket.
    let line = vec![b'x'; 2 << 20];
    assert!(line.len() > MAX_REQUEST_BYTES);
    let mut conn = std::os::unix::net::UnixStream::connect(daemon.socket()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let _ = conn.write_all(&line);
    let mut reply = String::new();
    BufReader::new(&conn).read_line(&mut reply).unwrap();
    let resp = Response::from_line(reply.trim_end()).unwrap();
    assert!(
        matches!(&resp, Response::Error { message } if message.contains("request line over")),
        "got {resp:?}"
    );
    // The connection is closed; a fresh one is served.
    let mut rest = String::new();
    assert_eq!(BufReader::new(&conn).read_line(&mut rest).unwrap_or(0), 0);
    assert!(matches!(
        call_on(daemon.socket(), &Request::Ping),
        Response::Pong { .. }
    ));
    daemon.stop();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_kernel_over_the_expression_caps_gets_an_error_and_the_next_job_runs() {
    // A 20 000-term chain is a quarter of the request cap; its tree would
    // be as deep as it is long. It is refused at parse, before any pass
    // could recurse over it.
    let dir = temp_dir("deep-expr");
    let daemon = Daemon::start(ServiceConfig {
        socket: dir.join("mscd.sock"),
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let chain = vec!["0.5*B[0,0]"; 20_000].join(" + ");
    let source = format!(
        "stencil deep {{\n    grid B: f64[16, 16] halo 1 window 2;\n    kernel S = {chain};\n    \
         combine res[t] = 1.0*S[t-1];\n    run 2;\n}}\n"
    );
    assert!(source.len() < MAX_REQUEST_BYTES);
    let mut client = Client::connect(daemon.socket()).unwrap();
    let resp = client
        .call(&submit(Submission {
            source,
            ..Submission::default()
        }))
        .unwrap();
    assert!(
        matches!(&resp, Response::Error { message } if message.contains("nodes")),
        "got {resp:?}"
    );
    let resp = client
        .call(&submit(Submission {
            source: COMPILE_SRC.to_string(),
            ..Submission::default()
        }))
        .unwrap();
    assert!(matches!(resp, Response::Done(_)), "got {resp:?}");
    daemon.stop();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}
