//! Periodic metrics sampling of a [`TelemetryHub`].
//!
//! A background thread snapshots the hub every `--metrics-interval-ms`,
//! computes interval deltas/rates (steps/s, halo-wait p99, steals/s,
//! retransmits, recoveries), runs the online stall detector
//! ([`crate::alert`]) on them, and emits two artifacts per sample:
//!
//! * a **JSONL time series** (`--metrics-file`): one schema-versioned
//!   line appended per sample — the stream `mscc top` tail-follows;
//! * an **OpenMetrics exposition** (same path, `.om` extension):
//!   atomically rewritten current totals for scrapers.
//!
//! Termination discipline: a final sample is flushed on normal
//! [`Sampler::stop`], and the sampler registers itself as the hub's
//! flush hook so the flight-recorder dump path ([`TelemetryHub::
//! dump_on_error`]) forces a sample out the moment a comm fault or
//! restart fires — a killed run still leaves a metrics tail ending in a
//! `comm_fault` alert.

use crate::alert::{Alert, AlertKind};
use crate::counters::{Counter, CounterSet};
use crate::histogram::{Hist, HistSet};
use crate::hub::{RankSample, TelemetryHub};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::Duration;

/// Schema tag stamped into every JSONL line. Bump on any incompatible
/// change to the line layout.
pub const METRICS_SCHEMA: &str = "msc-metrics-v1";

/// Interval bounds: one outside them is a typed error, never a panic.
const MIN_INTERVAL_MS: u64 = 1;
const MAX_INTERVAL_MS: u64 = 3_600_000;

/// Sampler configuration. Build with [`SamplerConfig::from_millis`] so
/// the interval is validated.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    pub interval: Duration,
    /// JSONL time-series path (created/truncated at start).
    pub jsonl_path: PathBuf,
    /// OpenMetrics exposition path (the JSONL path with extension
    /// `om`), atomically rewritten each sample.
    pub openmetrics_path: PathBuf,
}

impl SamplerConfig {
    /// Validate `interval_ms` and derive both output paths from the
    /// metrics file. Errors are strings suitable for CLI reporting.
    pub fn from_millis(
        interval_ms: u64,
        metrics_file: impl Into<PathBuf>,
    ) -> Result<SamplerConfig, String> {
        if !(MIN_INTERVAL_MS..=MAX_INTERVAL_MS).contains(&interval_ms) {
            return Err(format!(
                "metrics interval must be {MIN_INTERVAL_MS}..={MAX_INTERVAL_MS} ms (got {interval_ms})"
            ));
        }
        let jsonl_path = metrics_file.into();
        let openmetrics_path = jsonl_path.with_extension("om");
        if openmetrics_path == jsonl_path {
            return Err(format!(
                "metrics file {} collides with its OpenMetrics sibling (.om)",
                jsonl_path.display()
            ));
        }
        Ok(SamplerConfig {
            interval: Duration::from_millis(interval_ms),
            jsonl_path,
            openmetrics_path,
        })
    }
}

/// What a finished sampler did (reported in the CLI epilogue).
#[derive(Debug, Clone)]
pub struct SamplerSummary {
    pub samples: u64,
    pub alerts: u64,
    pub jsonl_path: PathBuf,
    pub openmetrics_path: PathBuf,
    /// First I/O error encountered while writing, if any (sampling
    /// never aborts the run it observes).
    pub io_error: Option<String>,
}

struct Prev {
    t_ns: u64,
    counters: CounterSet,
    hists: HistSet,
    ranks: Vec<RankSample>,
}

struct State {
    seq: u64,
    samples: u64,
    alerts_total: u64,
    prev: Option<Prev>,
    io_error: Option<String>,
}

struct Shared {
    hub: Arc<TelemetryHub>,
    cfg: SamplerConfig,
    /// Scratch path for the atomic OpenMetrics rewrite. Unique per
    /// sampler (pid + process-wide sequence), because two hubs — or a
    /// restarted daemon — sampling to the same metrics path would race
    /// on a fixed `.om.tmp` sibling and could publish a torn rename.
    om_tmp: PathBuf,
    /// Stop flag + condvar: the thread sleeps the whole interval in one
    /// `wait_timeout` and wakes instantly on stop. No slice-polling —
    /// on small machines hundreds of idle wakeups per second are real,
    /// measurable drag on the run being observed.
    stop: Mutex<bool>,
    stop_cv: Condvar,
    state: Mutex<State>,
}

/// A running sampler. Dropping it stops the thread and flushes a final
/// sample; prefer [`Sampler::stop`] to also get the summary.
pub struct Sampler {
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    /// Start sampling `hub`. Creates/truncates both output files and
    /// writes an immediate baseline sample; installs the hub's flush
    /// hook so failure dumps flush the stream.
    pub fn start(hub: Arc<TelemetryHub>, cfg: SamplerConfig) -> std::io::Result<Sampler> {
        if let Some(parent) = cfg.jsonl_path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::File::create(&cfg.jsonl_path)?;
        static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let om_tmp = cfg.openmetrics_path.with_extension(format!(
            "om.tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let shared = Arc::new(Shared {
            hub: Arc::clone(&hub),
            cfg,
            om_tmp,
            stop: Mutex::new(false),
            stop_cv: Condvar::new(),
            state: Mutex::new(State {
                seq: 0,
                samples: 0,
                alerts_total: 0,
                prev: None,
                io_error: None,
            }),
        });
        let weak: Weak<Shared> = Arc::downgrade(&shared);
        hub.set_flush_hook(Some(Arc::new(move |reason: &str| {
            if let Some(s) = weak.upgrade() {
                let alert = Alert {
                    kind: AlertKind::CommFault,
                    rank: -1,
                    value: 0.0,
                    threshold: 0.0,
                    t_ns: crate::spans::now_ns(),
                    message: format!("comm fault: {reason}"),
                };
                s.tick(&format!("fault:{reason}"), Some(alert));
            }
        })));
        shared.tick("start", None);
        let s2 = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("msc-sampler".to_string())
            .spawn(move || {
                let mut stopped = s2.stop.lock().unwrap();
                while !*stopped {
                    let (guard, timeout) =
                        s2.stop_cv.wait_timeout(stopped, s2.cfg.interval).unwrap();
                    stopped = guard;
                    if !*stopped && timeout.timed_out() {
                        drop(stopped);
                        s2.tick("periodic", None);
                        stopped = s2.stop.lock().unwrap();
                    }
                }
            })?;
        Ok(Sampler {
            shared,
            thread: Some(thread),
        })
    }

    /// Stop the thread, flush the final sample, uninstall the flush
    /// hook, and report what happened.
    pub fn stop(mut self) -> SamplerSummary {
        self.shutdown();
        let st = self.shared.state.lock().unwrap();
        SamplerSummary {
            samples: st.samples,
            alerts: st.alerts_total,
            jsonl_path: self.shared.cfg.jsonl_path.clone(),
            openmetrics_path: self.shared.cfg.openmetrics_path.clone(),
            io_error: st.io_error.clone(),
        }
    }

    fn shutdown(&mut self) {
        if let Some(t) = self.thread.take() {
            *self.shared.stop.lock().unwrap() = true;
            self.shared.stop_cv.notify_all();
            let _ = t.join();
            self.shared.tick("final", None);
            self.shared.hub.set_flush_hook(None);
            // Belt-and-braces: every successful publish consumes the
            // temp file via rename, but leave no debris behind either
            // way (e.g. an interrupted write on a full disk).
            let _ = std::fs::remove_file(&self.shared.om_tmp);
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn per_second(delta: u64, dt_ns: u64) -> f64 {
    if dt_ns == 0 {
        0.0
    } else {
        delta as f64 * 1e9 / dt_ns as f64
    }
}

/// Format an f64 for JSON: finite, fixed precision, never NaN/inf.
fn jf(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0.0".to_string()
    }
}

impl Shared {
    /// Take one sample: snapshot, delta, detect, append JSONL, rewrite
    /// the OpenMetrics exposition. Serialized on the state mutex so the
    /// periodic thread and a failure flush never interleave.
    fn tick(&self, reason: &str, extra_alert: Option<Alert>) {
        let mut st = self.state.lock().unwrap();
        let t_ns = crate::spans::now_ns();
        let account = self.hub.read();
        let (counters, hists) = (account.counters, account.hists);
        let ranks: Vec<RankSample> = account.ranks.into_values().collect();

        let (dt_ns, dcounters, dhists, mut alerts) = match &st.prev {
            Some(prev) => {
                let dt = t_ns.saturating_sub(prev.t_ns);
                let mut dc = CounterSet::new();
                for c in Counter::ALL {
                    dc.set(c, counters.get(c).saturating_sub(prev.counters.get(c)));
                }
                let mut dh = HistSet::new();
                for h in Hist::ALL {
                    dh.set(h, hists.get(h).saturating_delta(prev.hists.get(h)));
                }
                let alerts = crate::alert::detect_alerts(&prev.ranks, &ranks, &dh, t_ns);
                (dt, dc, dh, alerts)
            }
            None => (0, CounterSet::new(), HistSet::new(), Vec::new()),
        };
        alerts.extend(extra_alert);

        for a in &alerts {
            let rank = if a.rank < 0 { u32::MAX } else { a.rank as u32 };
            self.hub
                .flight(crate::FlightKind::Alert, rank, 0, a.kind as u64, st.seq);
            eprintln!("msc-alert[{}]: {}", a.kind.name(), a.message);
        }
        st.alerts_total += alerts.len() as u64;

        let line = render_jsonl(RenderInput {
            seq: st.seq,
            reason,
            t_ns,
            dt_ns,
            counters: &counters,
            dcounters: &dcounters,
            dhists: &dhists,
            ranks: &ranks,
            prev_ranks: st.prev.as_ref().map(|p| p.ranks.as_slice()).unwrap_or(&[]),
            alerts: &alerts,
        });
        if let Err(e) = self.append_jsonl(&line) {
            st.io_error.get_or_insert(e);
        }
        let om = crate::openmetrics::render(&counters, &hists, &ranks, st.alerts_total);
        if let Err(e) = self.rewrite_openmetrics(&om) {
            st.io_error.get_or_insert(e);
        }

        st.prev = Some(Prev {
            t_ns,
            counters,
            hists,
            ranks,
        });
        st.seq += 1;
        st.samples += 1;
    }

    fn append_jsonl(&self, line: &str) -> Result<(), String> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.cfg.jsonl_path)
            .map_err(|e| format!("open {}: {e}", self.cfg.jsonl_path.display()))?;
        f.write_all(line.as_bytes())
            .and_then(|()| f.write_all(b"\n"))
            .map_err(|e| format!("write {}: {e}", self.cfg.jsonl_path.display()))
    }

    /// Atomic rewrite: temp file + rename, so a scraper never reads a
    /// half-written exposition. The temp name is unique to this sampler
    /// (see [`Shared::om_tmp`]); a failed rename removes its debris so
    /// an aborted publish never litters the metrics directory.
    fn rewrite_openmetrics(&self, text: &str) -> Result<(), String> {
        let tmp = &self.om_tmp;
        std::fs::write(tmp, text).map_err(|e| format!("write {}: {e}", tmp.display()))?;
        std::fs::rename(tmp, &self.cfg.openmetrics_path).map_err(|e| {
            let _ = std::fs::remove_file(tmp);
            format!("rename to {}: {e}", self.cfg.openmetrics_path.display())
        })
    }
}

struct RenderInput<'a> {
    seq: u64,
    reason: &'a str,
    t_ns: u64,
    dt_ns: u64,
    counters: &'a CounterSet,
    dcounters: &'a CounterSet,
    dhists: &'a HistSet,
    ranks: &'a [RankSample],
    prev_ranks: &'a [RankSample],
    alerts: &'a [Alert],
}

fn render_jsonl(input: RenderInput<'_>) -> String {
    let RenderInput {
        seq,
        reason,
        t_ns,
        dt_ns,
        counters,
        dcounters,
        dhists,
        ranks,
        prev_ranks,
        alerts,
    } = input;
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\"schema\":{},\"seq\":{seq},\"reason\":{},\"t_ns\":{t_ns},\"dt_ns\":{dt_ns}",
        crate::json::quoted(METRICS_SCHEMA),
        crate::json::quoted(reason),
    );

    out.push_str(",\"counters\":{");
    for (i, c) in Counter::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", c.name(), counters.get(*c));
    }
    out.push('}');

    let _ = write!(
        out,
        ",\"rates\":{{\"steps_per_s\":{},\"pool_steals_per_s\":{},\"retransmits_per_s\":{},\"recoveries_per_s\":{},\"halo_wait_p99_ns\":{},\"halo_wait_count\":{}}}",
        jf(per_second(dcounters.get(Counter::Steps), dt_ns)),
        jf(per_second(dcounters.get(Counter::PoolSteals), dt_ns)),
        jf(per_second(dcounters.get(Counter::RetransmitCount), dt_ns)),
        jf(per_second(dcounters.get(Counter::RankRecoveries), dt_ns)),
        dhists.get(Hist::HaloWaitNanos).p99(),
        dhists.get(Hist::HaloWaitNanos).count(),
    );

    out.push_str(",\"hists\":{");
    for (i, h) in Hist::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let d = dhists.get(*h);
        let _ = write!(
            out,
            "\"{}\":{{\"count\":{},\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{},\"mean_ns\":{}}}",
            h.name(),
            d.count(),
            d.p50(),
            d.p99(),
            d.max(),
            jf(d.mean()),
        );
    }
    out.push('}');

    out.push_str(",\"ranks\":[");
    for (i, r) in ranks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let before = prev_ranks
            .iter()
            .find(|p| p.rank == r.rank)
            .map_or(0, |p| p.steps);
        let step_rate = per_second(r.steps.saturating_sub(before), dt_ns);
        let _ = write!(
            out,
            "{{\"rank\":{},\"steps\":{},\"last_step\":{},\"step_rate\":{},\"halo_wait_ns\":{},\"steals\":{},\"retransmits\":{},\"recoveries\":{}}}",
            r.rank,
            r.steps,
            r.last_step,
            jf(step_rate),
            r.halo_wait_ns,
            r.steals,
            r.retransmits,
            r.recoveries,
        );
    }
    out.push(']');

    out.push_str(",\"alerts\":[");
    for (i, a) in alerts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"kind\":{},\"rank\":{},\"value\":{},\"threshold\":{},\"t_ns\":{},\"message\":{}}}",
            crate::json::quoted(a.kind.name()),
            a.rank,
            jf(a.value),
            jf(a.threshold),
            a.t_ns,
            crate::json::quoted(&a.message),
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_metrics_path(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "msc_sampler_{tag}_{}_{n}/metrics.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn interval_validation_is_typed() {
        assert!(SamplerConfig::from_millis(0, "m.jsonl")
            .unwrap_err()
            .contains("metrics interval"));
        assert!(SamplerConfig::from_millis(MAX_INTERVAL_MS + 1, "m.jsonl").is_err());
        let cfg = SamplerConfig::from_millis(100, "out/metrics.jsonl").unwrap();
        assert_eq!(cfg.openmetrics_path, PathBuf::from("out/metrics.om"));
        // A metrics file already named .om would self-collide.
        assert!(SamplerConfig::from_millis(100, "metrics.om").is_err());
    }

    #[test]
    fn sampler_emits_valid_jsonl_and_openmetrics() {
        let hub = crate::TelemetryHub::new();
        hub.set_enabled(true);
        let path = temp_metrics_path("emit");
        let cfg = SamplerConfig::from_millis(10, &path).unwrap();
        let om_path = cfg.openmetrics_path.clone();
        let sampler = Sampler::start(Arc::clone(&hub), cfg).unwrap();
        for step in 0..5u64 {
            let _g = crate::install_thread_hub(Arc::clone(&hub));
            let mut counters = crate::CounterSet::new();
            counters.set(Counter::Steps, 1);
            let mut hists = crate::HistSet::new();
            hists.add(Hist::StepWallNanos, 1000);
            crate::record_set(&counters, &hists);
            crate::note_rank_step(0, step);
            std::thread::sleep(Duration::from_millis(12));
        }
        let summary = sampler.stop();
        assert!(summary.io_error.is_none(), "{:?}", summary.io_error);
        assert!(summary.samples >= 3, "got {} samples", summary.samples);

        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len() as u64, summary.samples);
        for line in &lines {
            assert!(line.starts_with(&format!("{{\"schema\":\"{METRICS_SCHEMA}\"")));
            assert!(line.ends_with("]}"));
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
        // Final line carries the totals and the rank row.
        let last = lines.last().unwrap();
        assert!(last.contains("\"reason\":\"final\""));
        assert!(last.contains("\"steps\":5"));
        assert!(last.contains("\"rank\":0"));

        let om = std::fs::read_to_string(&om_path).unwrap();
        let doc = crate::openmetrics::validate(&om).expect("exposition validates");
        assert_eq!(doc.samples["msc_steps_total"], 5.0);
        assert_eq!(doc.samples["msc_by_rank_steps{rank=\"0\"}"], 5.0);

        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn two_hubs_sampling_one_path_never_tear_the_exposition() {
        // Two sessions (or a restarted daemon racing its predecessor)
        // pointed at the same metrics path: with a fixed `.om.tmp`
        // sibling the writers raced on one temp file and could publish
        // torn output or fail the rename; unique suffixes make each
        // publish independent (last writer wins, always whole).
        let path = temp_metrics_path("collide");
        let mk = |tag: u64| {
            let hub = crate::TelemetryHub::new();
            hub.set_enabled(true);
            hub.record(Counter::Steps, tag);
            let cfg = SamplerConfig::from_millis(1, &path).unwrap();
            Sampler::start(hub, cfg).unwrap()
        };
        let a = mk(1);
        let b = mk(2);
        let om_path = path.with_extension("om");
        // Let both tick concurrently and keep re-validating the
        // published exposition the whole time.
        for _ in 0..40 {
            std::thread::sleep(Duration::from_millis(1));
            if let Ok(om) = std::fs::read_to_string(&om_path) {
                crate::openmetrics::validate(&om).expect("published exposition is whole");
            }
        }
        let sa = a.stop();
        let sb = b.stop();
        assert!(sa.io_error.is_none(), "{:?}", sa.io_error);
        assert!(sb.io_error.is_none(), "{:?}", sb.io_error);
        let om = std::fs::read_to_string(&om_path).unwrap();
        crate::openmetrics::validate(&om).expect("final exposition is whole");
        // No `.om.tmp*` debris left behind by either sampler.
        let dir = path.parent().unwrap();
        let debris: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains("om.tmp"))
            .collect();
        assert!(debris.is_empty(), "temp debris: {debris:?}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn failure_flush_leaves_comm_fault_tail() {
        let hub = crate::TelemetryHub::new();
        hub.set_enabled(true);
        let path = temp_metrics_path("fault");
        let cfg = SamplerConfig::from_millis(60_000, &path).unwrap(); // never ticks on its own
        let sampler = Sampler::start(Arc::clone(&hub), cfg).unwrap();
        // The dump path fires the hook even with no flight dir set.
        assert!(hub.dump_on_error("kill (rank 1)").is_none());
        let summary = sampler.stop();
        assert!(summary.alerts >= 1);
        let body = std::fs::read_to_string(&path).unwrap();
        let fault_line = body
            .lines()
            .find(|l| l.contains("\"reason\":\"fault:kill (rank 1)\""))
            .expect("fault flush line present");
        assert!(fault_line.contains("\"kind\":\"comm_fault\""));
        // ... and the flight recorder got the alert too.
        assert!(hub
            .snapshot_flight()
            .iter()
            .any(|r| r.kind == crate::FlightKind::Alert));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
