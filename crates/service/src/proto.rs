//! The mscd wire protocol: line-delimited JSON over a local socket.
//!
//! One request per line, one response per line, always in order — a
//! connection is a synchronous session (concurrency comes from opening
//! more connections, which the daemon serves with one handler thread
//! each). A line is written straight into one `String`, field by field,
//! through the shared [`escape`]: the bytes [`Json::to_compact`] renders
//! for the same document, so a message can never contain an unescaped
//! newline. A line is read with [`Json::parse`], whose scan is linear in
//! the line, and its strings are moved out of the parsed document, not
//! copied.
//!
//! Both sides are version-checked loosely: unknown fields are ignored,
//! unknown `op`/`kind` tags are errors, so additive evolution is safe.

use msc_core::schedule::Target;
use msc_trace::json::{self, escape};
use msc_trace::Json;

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

/// One protocol line, written field by field into one `String`: the
/// bytes [`Json::to_compact`] renders for an object of the same fields in
/// the same order, with no document built first.
struct Line(String);

impl Line {
    /// `{"tag":"value"`: every message leads with its tag. A long string
    /// field reserves its own room as it is escaped.
    fn new(tag: &str, value: &str) -> Line {
        let mut line = Line(String::with_capacity(128));
        line.0.push('{');
        escape(tag, &mut line.0);
        line.0.push(':');
        escape(value, &mut line.0);
        line
    }

    /// `,"key":`, and the line to write the value into.
    fn key(&mut self, key: &str) -> &mut String {
        self.0.push(',');
        escape(key, &mut self.0);
        self.0.push(':');
        &mut self.0
    }

    fn str(&mut self, key: &str, v: &str) -> &mut Line {
        escape(v, self.key(key));
        self
    }

    fn num(&mut self, key: &str, v: u64) -> &mut Line {
        json::number(v as f64, self.key(key));
        self
    }

    fn flag(&mut self, key: &str, v: bool) -> &mut Line {
        self.key(key).push_str(if v { "true" } else { "false" });
        self
    }

    fn end(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// A parsed line's fields, each moved out once by name (the first of
/// equal keys, as [`Json::get`] finds).
struct Fields(Vec<(String, Json)>);

impl Fields {
    /// The fields of `line`'s document; none when it is not an object.
    fn parse(line: &str, what: &str) -> Result<Fields, String> {
        match Json::parse(line.trim()).map_err(|e| format!("bad {what}: {e}"))? {
            Json::Obj(fields) => Ok(Fields(fields)),
            _ => Ok(Fields(Vec::new())),
        }
    }

    fn take(&mut self, key: &str) -> Option<Json> {
        let (_, v) = self.0.iter_mut().find(|(k, _)| k == key)?;
        Some(std::mem::replace(v, Json::Null))
    }

    fn opt_str(&mut self, key: &str) -> Option<String> {
        match self.take(key)? {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn str(&mut self, key: &str) -> Result<String, String> {
        self.opt_str(key)
            .ok_or_else(|| format!("missing string field `{key}`"))
    }

    fn opt_u64(&mut self, key: &str) -> Option<u64> {
        self.take(key)?.as_f64().map(|v| v as u64)
    }

    fn u64(&mut self, key: &str) -> Result<u64, String> {
        self.opt_u64(key)
            .ok_or_else(|| format!("missing numeric field `{key}`"))
    }

    fn flag(&mut self, key: &str) -> bool {
        self.take(key).and_then(|v| v.as_bool()).unwrap_or(false)
    }
}

impl Request {
    /// Render as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        let sub = match self {
            Request::Ping => return Line::new("op", "ping").end(),
            Request::Stats => return Line::new("op", "stats").end(),
            Request::Shutdown => return Line::new("op", "shutdown").end(),
            Request::Submit(sub) => sub,
        };
        let mut line = Line::new("op", "submit");
        line.str("tenant", &sub.tenant)
            .str("source", &sub.source)
            .flag("run", sub.run)
            .num("sleep_ms", sub.sleep_ms);
        if let Some(t) = sub.target {
            line.str("target", t.as_str());
        }
        line.end()
    }

    /// Parse one protocol line.
    pub fn from_line(line: &str) -> Result<Request, String> {
        let mut doc = Fields::parse(line, "request")?;
        match doc.str("op")?.as_str() {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "submit" => {
                let named = |name: String| {
                    Target::from_name(&name).ok_or_else(|| format!("unknown target `{name}`"))
                };
                let target = doc.opt_str("target").map(named).transpose()?;
                Ok(Request::Submit(Submission {
                    tenant: doc.str("tenant")?,
                    source: doc.str("source")?,
                    target,
                    run: doc.flag("run"),
                    sleep_ms: doc.opt_u64("sleep_ms").unwrap_or(0),
                }))
            }
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

impl Response {
    /// Render as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Response::Pong { version, jobs_done } => {
                let mut line = Line::new("kind", "pong");
                line.num("version", *version).num("jobs_done", *jobs_done);
                line.end()
            }
            Response::Stats(st) => {
                let mut line = Line::new("kind", "stats");
                line.num("jobs_done", st.jobs_done)
                    .num("jobs_denied", st.jobs_denied)
                    .num("jobs_failed", st.jobs_failed)
                    .num("jobs_rejected", st.jobs_rejected)
                    .num("cache_hits", st.cache_hits)
                    .num("cache_misses", st.cache_misses)
                    .num("queue_depth", st.queue_depth)
                    .num("running", st.running)
                    .num("workers", st.workers);
                line.end()
            }
            Response::ShuttingDown => Line::new("kind", "shutting_down").end(),
            Response::Done(d) => {
                let mut line = Line::new("kind", "done");
                line.num("job", d.job)
                    .str("program", &d.program)
                    .str("target", &d.target)
                    .flag("cache_hit", d.cache_hit)
                    .num("loc", d.loc);
                let files = line.key("files");
                files.push('[');
                for (i, f) in d.files.iter().enumerate() {
                    if i > 0 {
                        files.push(',');
                    }
                    escape(f, files);
                }
                files.push(']');
                let counters = line.key("counters");
                counters.push('{');
                for (i, (k, v)) in d.counters.iter().enumerate() {
                    if i > 0 {
                        counters.push(',');
                    }
                    escape(k, counters);
                    counters.push(':');
                    json::number(*v as f64, counters);
                }
                counters.push('}');
                if let Some(steps) = d.steps {
                    line.num("steps", steps);
                }
                if let Some(tiles) = d.tiles {
                    line.num("tiles", tiles);
                }
                if let Some(p) = &d.metrics_path {
                    line.str("metrics_path", p);
                }
                line.end()
            }
            Response::Denied { program, report } => {
                let mut line = Line::new("kind", "denied");
                line.str("program", program);
                line.key("report").push_str(&report.to_compact());
                line.end()
            }
            Response::Busy { reason, depth, limit } => {
                let mut line = Line::new("kind", "busy");
                line.str("reason", reason.as_str())
                    .num("depth", *depth)
                    .num("limit", *limit);
                line.end()
            }
            Response::Error { message } => {
                let mut line = Line::new("kind", "error");
                line.str("message", message);
                line.end()
            }
        }
    }

    /// Parse one protocol line.
    pub fn from_line(line: &str) -> Result<Response, String> {
        let mut doc = Fields::parse(line, "response")?;
        match doc.str("kind")?.as_str() {
            "pong" => Ok(Response::Pong {
                version: doc.u64("version")?,
                jobs_done: doc.u64("jobs_done")?,
            }),
            "stats" => Ok(Response::Stats(ServiceStats {
                jobs_done: doc.u64("jobs_done")?,
                jobs_denied: doc.u64("jobs_denied")?,
                jobs_failed: doc.u64("jobs_failed")?,
                jobs_rejected: doc.u64("jobs_rejected")?,
                cache_hits: doc.u64("cache_hits")?,
                cache_misses: doc.u64("cache_misses")?,
                queue_depth: doc.u64("queue_depth")?,
                running: doc.u64("running")?,
                workers: doc.u64("workers")?,
            })),
            "shutting_down" => Ok(Response::ShuttingDown),
            "done" => {
                let files = match doc.take("files") {
                    Some(Json::Arr(items)) => items
                        .into_iter()
                        .filter_map(|f| match f {
                            Json::Str(f) => Some(f),
                            _ => None,
                        })
                        .collect(),
                    _ => Vec::new(),
                };
                let counters = match doc.take("counters") {
                    Some(Json::Obj(fields)) => fields
                        .into_iter()
                        .filter_map(|(k, v)| v.as_f64().map(|x| (k, x as u64)))
                        .collect(),
                    _ => Vec::new(),
                };
                Ok(Response::Done(JobDone {
                    job: doc.u64("job")?,
                    program: doc.str("program")?,
                    target: doc.str("target")?,
                    cache_hit: doc.flag("cache_hit"),
                    loc: doc.u64("loc")?,
                    files,
                    steps: doc.opt_u64("steps"),
                    tiles: doc.opt_u64("tiles"),
                    counters,
                    metrics_path: doc.opt_str("metrics_path"),
                }))
            }
            "denied" => Ok(Response::Denied {
                program: doc.str("program")?,
                report: doc.take("report").unwrap_or(Json::Null),
            }),
            "busy" => Ok(Response::Busy {
                reason: match doc.str("reason")?.as_str() {
                    "queue" => BusyReason::Queue,
                    "quota" => BusyReason::Quota,
                    other => return Err(format!("unknown busy reason `{other}`")),
                },
                depth: doc.u64("depth")?,
                limit: doc.u64("limit")?,
            }),
            "error" => Ok(Response::Error {
                message: doc.str("message")?,
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

    /// One message of every variant, with quotes, backslashes, control
    /// characters, multi-byte text, a number at 1e15, nested report JSON
    /// and every optional field both set and unset, against the line the
    /// tree-building codec rendered for it.
    #[test]
    fn every_message_renders_its_pinned_line() {
        let requests = [
            (Request::Ping, r#"{"op":"ping"}"#),
            (Request::Stats, r#"{"op":"stats"}"#),
            (Request::Shutdown, r#"{"op":"shutdown"}"#),
            (
                Request::Submit(Submission {
                    tenant: "t\"1".to_string(),
                    source: "stencil é {\n\tgrid B: f64[8,8] halo 1; // \"q\" \\ \u{1}\r\n}"
                        .to_string(),
                    target: Some(Target::SunwayCG),
                    run: true,
                    sleep_ms: 25,
                }),
                r#"{"op":"submit","tenant":"t\"1","source":"stencil é {\n\tgrid B: f64[8,8] halo 1; // \"q\" \\ \u0001\r\n}","run":true,"sleep_ms":25,"target":"sunway"}"#,
            ),
            (
                Request::Submit(Submission::default()),
                r#"{"op":"submit","tenant":"default","source":"","run":false,"sleep_ms":0}"#,
            ),
        ];
        for (request, line) in requests {
            assert_eq!(request.to_line(), line);
            assert_eq!(Request::from_line(line).unwrap(), request);
        }
        let report = r#"{"diagnostics":[{"code":"MSC-L101","ratio":1.5,"help":"widen\nthe \"halo\""}],"deny_count":1,"ok":false,"x":null}"#;
        let responses = [
            (
                Response::Pong { version: PROTO_VERSION, jobs_done: 1_000_000_000_000_000 },
                r#"{"kind":"pong","version":1,"jobs_done":1000000000000000}"#,
            ),
            (
                Response::Stats(ServiceStats {
                    jobs_done: 1,
                    jobs_denied: 2,
                    jobs_failed: 3,
                    jobs_rejected: 4,
                    cache_hits: 5,
                    cache_misses: 6,
                    queue_depth: 7,
                    running: 8,
                    workers: 9,
                }),
                r#"{"kind":"stats","jobs_done":1,"jobs_denied":2,"jobs_failed":3,"jobs_rejected":4,"cache_hits":5,"cache_misses":6,"queue_depth":7,"running":8,"workers":9}"#,
            ),
            (Response::ShuttingDown, r#"{"kind":"shutting_down"}"#),
            (
                Response::Done(JobDone {
                    job: 3,
                    program: "3d7pt".to_string(),
                    target: "sunway".to_string(),
                    cache_hit: true,
                    loc: 321,
                    files: vec!["main.c".to_string(), "dir/Make\"file".to_string()],
                    steps: Some(10),
                    tiles: Some(80),
                    counters: vec![("steps".to_string(), 10), ("tiles_executed".to_string(), 80)],
                    metrics_path: Some("/tmp/job_3.jsonl".to_string()),
                }),
                r#"{"kind":"done","job":3,"program":"3d7pt","target":"sunway","cache_hit":true,"loc":321,"files":["main.c","dir/Make\"file"],"counters":{"steps":10,"tiles_executed":80},"steps":10,"tiles":80,"metrics_path":"/tmp/job_3.jsonl"}"#,
            ),
            (
                Response::Done(JobDone::default()),
                r#"{"kind":"done","job":0,"program":"","target":"","cache_hit":false,"loc":0,"files":[],"counters":{}}"#,
            ),
            (
                Response::Denied {
                    program: "bad".to_string(),
                    report: Json::parse(report).unwrap(),
                },
                r#"{"kind":"denied","program":"bad","report":{"diagnostics":[{"code":"MSC-L101","ratio":1.5,"help":"widen\nthe \"halo\""}],"deny_count":1,"ok":false,"x":null}}"#,
            ),
            (
                Response::Busy { reason: BusyReason::Quota, depth: 2, limit: 2 },
                r#"{"kind":"busy","reason":"quota","depth":2,"limit":2}"#,
            ),
            (
                Response::Error { message: "parse error:\nline 3: `é`\t\u{1f}".to_string() },
                r#"{"kind":"error","message":"parse error:\nline 3: `é`\t\u001f"}"#,
            ),
        ];
        for (response, line) in responses {
            assert_eq!(response.to_line(), line);
            assert_eq!(Response::from_line(line).unwrap(), response);
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
