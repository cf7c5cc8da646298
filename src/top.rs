//! Reading, validating and rendering `msc-metrics-v1` JSONL streams —
//! the library half of `mscc top`, shared with the daemon's smoke tests.
//!
//! The sampler appends one JSONL line per sample while `mscc top` (or a
//! strict CI replay) re-reads the file, so every read races the writer.
//! A reader can catch:
//!
//! * a **partial trailing line** — the line's bytes are mid-append;
//! * a **split UTF-8 scalar** — the read boundary landed inside a
//!   multi-byte character (alert messages are arbitrary text), which
//!   makes the whole file invalid UTF-8 even though every *complete*
//!   line is fine.
//!
//! Both are transient: the next read sees the line whole. [`read_stream`]
//! therefore decodes the longest valid UTF-8 prefix, tolerates a
//! malformed final line (reporting it as a partial tail so followers can
//! re-read), and treats only malformed *interior* lines as corruption —
//! fatal in strict mode, skipped otherwise.

use msc_trace::Json;
use std::path::Path;

/// One racy read of a metrics stream: every complete sample, plus
/// whether the read ended on a partially-written tail (re-read to see
/// it whole).
#[derive(Debug)]
pub struct StreamRead {
    pub docs: Vec<Json>,
    pub partial_tail: bool,
}

/// Read and parse `path`, tolerating a writer racing the read (see the
/// module docs). Errors are unreadable files or — in strict mode —
/// malformed interior lines.
pub fn read_stream(path: &Path, strict: bool) -> Result<StreamRead, String> {
    let bytes =
        std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    // A read boundary inside a multi-byte character leaves an invalid
    // UTF-8 tail; decode the longest valid prefix and treat the rest as
    // the partial tail it is.
    let (text, utf8_truncated) = match std::str::from_utf8(&bytes) {
        Ok(t) => (t, false),
        Err(e) => {
            let valid = std::str::from_utf8(&bytes[..e.valid_up_to()]).unwrap();
            (valid, true)
        }
    };
    let mut read = parse_metrics_lines(text, strict)?;
    read.partial_tail |= utf8_truncated;
    Ok(read)
}

/// Parse every complete line of `text`. A malformed **final** line is
/// always tolerated (the sampler may be mid-append — even a line that
/// already ends in `\n` can be torn by the reader's read boundary); any
/// earlier malformed line is corruption — fatal in strict mode, skipped
/// otherwise.
pub fn parse_metrics_lines(text: &str, strict: bool) -> Result<StreamRead, String> {
    let lines: Vec<&str> = text.lines().collect();
    let mut docs = Vec::with_capacity(lines.len());
    let mut partial_tail = !text.is_empty() && !text.ends_with('\n');
    for (i, line) in lines.iter().enumerate() {
        match Json::parse(line) {
            Ok(doc) => docs.push(doc),
            Err(_) if i + 1 == lines.len() => partial_tail = true,
            Err(e) if strict => return Err(format!("metrics line {}: {e}", i + 1)),
            Err(_) => {}
        }
    }
    Ok(StreamRead { docs, partial_tail })
}

/// Strict stream validation: schema tag on every line, seq monotone from
/// 0, counters monotone non-decreasing, and a well-formed OpenMetrics
/// sibling (when present on disk).
pub fn strict_check_stream(input: &Path, docs: &[Json]) -> Result<(), String> {
    for (i, doc) in docs.iter().enumerate() {
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != msc_trace::sampler::METRICS_SCHEMA {
            return Err(format!(
                "metrics line {}: schema {:?}, expected {:?}",
                i + 1,
                schema,
                msc_trace::sampler::METRICS_SCHEMA
            ));
        }
        let seq = doc.get("seq").and_then(Json::as_f64).unwrap_or(-1.0);
        if seq != i as f64 {
            return Err(format!("metrics line {}: seq {seq}, expected {i}", i + 1));
        }
        if let Some(prev) = i.checked_sub(1).map(|p| &docs[p]) {
            let (Some(Json::Obj(cur)), Some(before)) = (doc.get("counters"), prev.get("counters"))
            else {
                return Err(format!("metrics line {}: missing counters object", i + 1));
            };
            for (name, v) in cur {
                let now = v.as_f64().unwrap_or(0.0);
                let was = before.get(name).and_then(Json::as_f64).unwrap_or(0.0);
                if now < was {
                    return Err(format!(
                        "metrics line {}: counter {name} went backwards: {was} -> {now}",
                        i + 1
                    ));
                }
            }
        }
    }
    let om_path = input.with_extension("om");
    if om_path.exists() {
        let om = std::fs::read_to_string(&om_path)
            .map_err(|e| format!("cannot read {}: {e}", om_path.display()))?;
        msc_trace::openmetrics::validate(&om).map_err(|e| format!("{}: {e}", om_path.display()))?;
    }
    Ok(())
}

/// Render the per-rank dashboard for the latest sample of a stream.
pub fn render_top(input: &Path, docs: &[Json]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let Some(last) = docs.last() else {
        let _ = writeln!(out, "mscc top — {} (no samples yet)", input.display());
        return out;
    };
    let f = |key: &str| last.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let rate = |key: &str| {
        last.get("rates")
            .and_then(|r| r.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let _ = writeln!(
        out,
        "mscc top — {} | sample {} ({}) | {:.1} steps/s | halo p99 {:.2} ms | {:.1} steals/s",
        input.display(),
        f("seq") as u64,
        last.get("reason").and_then(Json::as_str).unwrap_or("?"),
        rate("steps_per_s"),
        rate("halo_wait_p99_ns") / 1e6,
        rate("pool_steals_per_s"),
    );
    let _ = writeln!(
        out,
        "{:>5} {:>10} {:>10} {:>12} {:>12} {:>8} {:>8} {:>6}",
        "rank", "steps", "last_step", "steps/s", "halo ms", "steals", "retrans", "recov"
    );
    if let Some(ranks) = last.get("ranks").and_then(Json::as_arr) {
        for r in ranks {
            let g = |key: &str| r.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "{:>5} {:>10} {:>10} {:>12.1} {:>12.2} {:>8} {:>8} {:>6}",
                g("rank") as u64,
                g("steps") as u64,
                g("last_step") as u64,
                g("step_rate"),
                g("halo_wait_ns") / 1e6,
                g("steals") as u64,
                g("retransmits") as u64,
                g("recoveries") as u64,
            );
        }
        if ranks.is_empty() {
            let _ = writeln!(out, "  (no per-rank samples yet)");
        }
    }
    // Most recent alert anywhere in the stream, plus the running total.
    let mut alerts_total = 0usize;
    let mut last_alert = None;
    for doc in docs {
        if let Some(alerts) = doc.get("alerts").and_then(Json::as_arr) {
            alerts_total += alerts.len();
            if let Some(a) = alerts.last() {
                last_alert = Some(a);
            }
        }
    }
    match last_alert {
        Some(a) => {
            let _ = writeln!(
                out,
                "alerts: {} total; last: [{}] {}",
                alerts_total,
                a.get("kind").and_then(Json::as_str).unwrap_or("?"),
                a.get("message").and_then(Json::as_str).unwrap_or(""),
            );
        }
        None => {
            let _ = writeln!(out, "alerts: none");
        }
    }
    out
}
