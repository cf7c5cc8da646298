//! The mscd wire protocol: line-delimited JSON over a local socket.
//!
//! One request per line, one response per line, always in order — a
//! connection is a synchronous session (concurrency comes from opening
//! more connections, which the daemon serves with one handler thread
//! each). Documents are rendered compactly ([`Json::to_compact`]) so a
//! message can never contain an unescaped newline.
//!
//! Both sides are version-checked loosely: unknown fields are ignored,
//! unknown `op`/`kind` tags are errors, so additive evolution is safe.

use msc_trace::Json;
use msc_core::schedule::Target;

/// Protocol revision, sent by the server in every `pong`.
pub const PROTO_VERSION: u64 = 1;

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Service-wide counters; answered with [`Response::Stats`].
    Stats,
    /// Graceful shutdown: queued jobs finish, then the daemon exits.
    Shutdown,
    /// Compile (and optionally run) one stencil program.
    Submit(Submission),
}

/// One compile-and-run job.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// Accounting identity for admission control (per-tenant quota).
    pub tenant: String,
    /// The `.msc` program text.
    pub source: String,
    /// Code generation target; `None` defers to the source's `target`
    /// directive (falling back to `cpu`).
    pub target: Option<Target>,
    /// Also execute the program functionally and report run statistics.
    pub run: bool,
    /// Artificial delay before the job body, in milliseconds. A load
    /// knob: tests and CI use it to hold jobs in flight long enough to
    /// exercise admission control deterministically.
    pub sleep_ms: u64,
}

impl Default for Submission {
    fn default() -> Submission {
        Submission {
            tenant: "default".to_string(),
            source: String::new(),
            target: None,
            run: false,
            sleep_ms: 0,
        }
    }
}

/// Why a submission was turned away at the door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusyReason {
    /// The global job queue is at its configured depth.
    Queue,
    /// This tenant already has its quota of jobs in flight.
    Quota,
}

impl BusyReason {
    pub fn as_str(self) -> &'static str {
        match self {
            BusyReason::Queue => "queue",
            BusyReason::Quota => "quota",
        }
    }
}

/// Service-wide counters, as returned by [`Request::Stats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceStats {
    pub jobs_done: u64,
    pub jobs_denied: u64,
    pub jobs_failed: u64,
    pub jobs_rejected: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub queue_depth: u64,
    pub running: u64,
    pub workers: u64,
}

/// A completed job's result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobDone {
    pub job: u64,
    pub program: String,
    pub target: String,
    /// Whether the program was served from the compile cache.
    pub cache_hit: bool,
    pub loc: u64,
    pub files: Vec<String>,
    /// Timesteps executed (run jobs only).
    pub steps: Option<u64>,
    /// Tiles executed (run jobs only).
    pub tiles: Option<u64>,
    /// Nonzero telemetry counters from this job's private hub.
    pub counters: Vec<(String, u64)>,
    /// This job's JSONL metrics stream, when the daemon samples jobs.
    pub metrics_path: Option<String>,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Pong { version: u64, jobs_done: u64 },
    Stats(ServiceStats),
    ShuttingDown,
    Done(JobDone),
    /// The verifier refused the program: deny-level MSC-Lxxx findings,
    /// carried as the full structured lint report.
    Denied { program: String, report: Json },
    /// Admission control turned the job away; resubmit later.
    Busy { reason: BusyReason, depth: u64, limit: u64 },
    /// The job failed outside the lint gate (parse error, I/O, ...).
    Error { message: String },
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::obj(fields)
}

fn s(v: &str) -> Json {
    Json::s(v)
}

fn n(v: u64) -> Json {
    Json::n(v as f64)
}

fn get_str(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn get_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .map(|v| v as u64)
        .ok_or_else(|| format!("missing numeric field `{key}`"))
}

fn get_bool(doc: &Json, key: &str) -> bool {
    doc.get(key).and_then(Json::as_bool).unwrap_or(false)
}

impl Request {
    /// Render as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        let doc = match self {
            Request::Ping => obj(vec![("op", s("ping"))]),
            Request::Stats => obj(vec![("op", s("stats"))]),
            Request::Shutdown => obj(vec![("op", s("shutdown"))]),
            Request::Submit(sub) => {
                let mut fields = vec![
                    ("op", s("submit")),
                    ("tenant", s(&sub.tenant)),
                    ("source", s(&sub.source)),
                    ("run", Json::Bool(sub.run)),
                    ("sleep_ms", n(sub.sleep_ms)),
                ];
                if let Some(t) = sub.target {
                    fields.push(("target", s(t.as_str())));
                }
                obj(fields)
            }
        };
        doc.to_compact()
    }

    /// Parse one protocol line.
    pub fn from_line(line: &str) -> Result<Request, String> {
        let doc = Json::parse(line.trim()).map_err(|e| format!("bad request: {e}"))?;
        match get_str(&doc, "op")?.as_str() {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "submit" => {
                let named = |name| {
                    Target::from_name(name).ok_or_else(|| format!("unknown target `{name}`"))
                };
                let target = doc.get("target").and_then(Json::as_str);
                let target = target.map(named).transpose()?;
                Ok(Request::Submit(Submission {
                    tenant: get_str(&doc, "tenant")?,
                    source: get_str(&doc, "source")?,
                    target,
                    run: get_bool(&doc, "run"),
                    sleep_ms: get_u64(&doc, "sleep_ms").unwrap_or(0),
                }))
            }
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

impl Response {
    /// Render as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        let doc = match self {
            Response::Pong { version, jobs_done } => obj(vec![
                ("kind", s("pong")),
                ("version", n(*version)),
                ("jobs_done", n(*jobs_done)),
            ]),
            Response::Stats(st) => obj(vec![
                ("kind", s("stats")),
                ("jobs_done", n(st.jobs_done)),
                ("jobs_denied", n(st.jobs_denied)),
                ("jobs_failed", n(st.jobs_failed)),
                ("jobs_rejected", n(st.jobs_rejected)),
                ("cache_hits", n(st.cache_hits)),
                ("cache_misses", n(st.cache_misses)),
                ("queue_depth", n(st.queue_depth)),
                ("running", n(st.running)),
                ("workers", n(st.workers)),
            ]),
            Response::ShuttingDown => obj(vec![("kind", s("shutting_down"))]),
            Response::Done(d) => {
                let mut fields = vec![
                    ("kind", s("done")),
                    ("job", n(d.job)),
                    ("program", s(&d.program)),
                    ("target", s(&d.target)),
                    ("cache_hit", Json::Bool(d.cache_hit)),
                    ("loc", n(d.loc)),
                    (
                        "files",
                        Json::Arr(d.files.iter().map(|f| s(f)).collect()),
                    ),
                    (
                        "counters",
                        Json::Obj(
                            d.counters
                                .iter()
                                .map(|(k, v)| (k.clone(), n(*v)))
                                .collect(),
                        ),
                    ),
                ];
                if let Some(steps) = d.steps {
                    fields.push(("steps", n(steps)));
                }
                if let Some(tiles) = d.tiles {
                    fields.push(("tiles", n(tiles)));
                }
                if let Some(p) = &d.metrics_path {
                    fields.push(("metrics_path", s(p)));
                }
                obj(fields)
            }
            Response::Denied { program, report } => obj(vec![
                ("kind", s("denied")),
                ("program", s(program)),
                ("report", report.clone()),
            ]),
            Response::Busy { reason, depth, limit } => obj(vec![
                ("kind", s("busy")),
                ("reason", s(reason.as_str())),
                ("depth", n(*depth)),
                ("limit", n(*limit)),
            ]),
            Response::Error { message } => {
                obj(vec![("kind", s("error")), ("message", s(message))])
            }
        };
        doc.to_compact()
    }

    /// Parse one protocol line.
    pub fn from_line(line: &str) -> Result<Response, String> {
        let doc = Json::parse(line.trim()).map_err(|e| format!("bad response: {e}"))?;
        match get_str(&doc, "kind")?.as_str() {
            "pong" => Ok(Response::Pong {
                version: get_u64(&doc, "version")?,
                jobs_done: get_u64(&doc, "jobs_done")?,
            }),
            "stats" => Ok(Response::Stats(ServiceStats {
                jobs_done: get_u64(&doc, "jobs_done")?,
                jobs_denied: get_u64(&doc, "jobs_denied")?,
                jobs_failed: get_u64(&doc, "jobs_failed")?,
                jobs_rejected: get_u64(&doc, "jobs_rejected")?,
                cache_hits: get_u64(&doc, "cache_hits")?,
                cache_misses: get_u64(&doc, "cache_misses")?,
                queue_depth: get_u64(&doc, "queue_depth")?,
                running: get_u64(&doc, "running")?,
                workers: get_u64(&doc, "workers")?,
            })),
            "shutting_down" => Ok(Response::ShuttingDown),
            "done" => {
                let files = doc
                    .get("files")
                    .and_then(Json::as_arr)
                    .map(|a| {
                        a.iter()
                            .filter_map(Json::as_str)
                            .map(str::to_string)
                            .collect()
                    })
                    .unwrap_or_default();
                let counters = match doc.get("counters") {
                    Some(Json::Obj(fields)) => fields
                        .iter()
                        .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x as u64)))
                        .collect(),
                    _ => Vec::new(),
                };
                Ok(Response::Done(JobDone {
                    job: get_u64(&doc, "job")?,
                    program: get_str(&doc, "program")?,
                    target: get_str(&doc, "target")?,
                    cache_hit: get_bool(&doc, "cache_hit"),
                    loc: get_u64(&doc, "loc")?,
                    files,
                    steps: doc.get("steps").and_then(Json::as_f64).map(|v| v as u64),
                    tiles: doc.get("tiles").and_then(Json::as_f64).map(|v| v as u64),
                    counters,
                    metrics_path: doc
                        .get("metrics_path")
                        .and_then(Json::as_str)
                        .map(str::to_string),
                }))
            }
            "denied" => Ok(Response::Denied {
                program: get_str(&doc, "program")?,
                report: doc.get("report").cloned().unwrap_or(Json::Null),
            }),
            "busy" => Ok(Response::Busy {
                reason: match get_str(&doc, "reason")?.as_str() {
                    "queue" => BusyReason::Queue,
                    "quota" => BusyReason::Quota,
                    other => return Err(format!("unknown busy reason `{other}`")),
                },
                depth: get_u64(&doc, "depth")?,
                limit: get_u64(&doc, "limit")?,
            }),
            "error" => Ok(Response::Error {
                message: get_str(&doc, "message")?,
            }),
            other => Err(format!("unknown response kind `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::Submit(Submission {
                tenant: "t\"1".to_string(),
                source: "grid B f64[8,8]\nhalo 1\n".to_string(),
                target: Some(Target::SunwayCG),
                run: true,
                sleep_ms: 25,
            }),
            Request::Submit(Submission::default()),
        ];
        for r in reqs {
            let line = r.to_line();
            assert!(!line.contains('\n'), "multi-line request: {line}");
            assert_eq!(Request::from_line(&line).unwrap(), r, "via {line}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            Response::Pong { version: PROTO_VERSION, jobs_done: 7 },
            Response::Stats(ServiceStats {
                jobs_done: 1,
                cache_hits: 2,
                cache_misses: 3,
                queue_depth: 4,
                running: 1,
                workers: 2,
                ..ServiceStats::default()
            }),
            Response::ShuttingDown,
            Response::Done(JobDone {
                job: 3,
                program: "3d7pt".to_string(),
                target: "sunway".to_string(),
                cache_hit: true,
                loc: 321,
                files: vec!["main.c".to_string(), "Makefile".to_string()],
                steps: Some(10),
                tiles: None,
                counters: vec![("steps".to_string(), 10), ("tiles_executed".to_string(), 80)],
                metrics_path: Some("/tmp/job_3.jsonl".to_string()),
            }),
            Response::Denied {
                program: "bad".to_string(),
                report: Json::parse(r#"{"diagnostics":[{"code":"MSC-L101"}]}"#).unwrap(),
            },
            Response::Busy { reason: BusyReason::Queue, depth: 9, limit: 8 },
            Response::Busy { reason: BusyReason::Quota, depth: 2, limit: 2 },
            Response::Error { message: "parse error:\nline 3".to_string() },
        ];
        for r in resps {
            let line = r.to_line();
            assert!(!line.contains('\n'), "multi-line response: {line}");
            assert_eq!(Response::from_line(&line).unwrap(), r, "via {line}");
        }
    }

    #[test]
    fn unknown_tags_are_errors_not_panics() {
        assert!(Request::from_line(r#"{"op":"dance"}"#).is_err());
        assert!(Response::from_line(r#"{"kind":"???"}"#).is_err());
        assert!(Request::from_line("not json").is_err());
        assert!(Request::from_line(r#"{"op":"submit"}"#).is_err());
    }
}
