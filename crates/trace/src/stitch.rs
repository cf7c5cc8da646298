//! Cross-rank trace stitching: message identity, the per-step
//! straggler/imbalance report, and a structural validator for the
//! chrome://tracing export.
//!
//! Ranks in the distributed runtime are threads sharing the process
//! span buffers, each tagged with its rank id
//! ([`crate::spans::set_current_rank`]). Stitching is therefore mostly a
//! rendering concern: the exporter gives each rank its own process row
//! and draws flow arrows between [`SpanKind::FlowStart`]/[`FlowEnd`]
//! records that share a packed *message identity* — the
//! (src, dst, tag, seq) tuple every data frame carries. This module owns
//! that packing plus the analyses built on the stitched timeline.
//!
//! [`FlowEnd`]: crate::spans::SpanKind::FlowEnd

use crate::json::Json;
use crate::profile::Profile;
use crate::spans::{SpanKind, NO_RANK};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Span name the distributed runtime uses for one rank's time step
/// (recorded with `arg` = step index); the straggler report keys on it.
pub const STEP_SPAN: &str = "step";

/// Pack a message identity into one u64: the flow-event correlation key.
///
/// Layout: `src:8 | dst:8 | tag:16 | seq:32`. A run's per-stream seqs stay
/// far below 2^32 and rank counts far below 2^8, so the packing is
/// collision-free in practice.
#[inline]
pub fn message_id(src: u32, dst: u32, tag: u32, seq: u32) -> u64 {
    ((src as u64 & 0xff) << 56)
        | ((dst as u64 & 0xff) << 48)
        | ((tag as u64 & 0xffff) << 32)
        | (seq as u64)
}

/// Per-step imbalance figures across ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct StepStats {
    /// Step index (the `arg` of the [`STEP_SPAN`] spans).
    pub step: u64,
    /// Number of ranks that reported this step.
    pub ranks: usize,
    /// Slowest rank's step duration.
    pub max_ns: u64,
    /// Mean step duration across ranks.
    pub mean_ns: f64,
    /// The critical-path rank: the one with `max_ns`.
    pub slowest_rank: u32,
}

impl StepStats {
    /// max/mean — 1.0 means perfectly balanced; 2.0 means the slowest
    /// rank took twice the average.
    pub fn imbalance(&self) -> f64 {
        if self.mean_ns == 0.0 {
            1.0
        } else {
            self.max_ns as f64 / self.mean_ns
        }
    }
}

/// Compute the per-step straggler report from a stitched profile:
/// groups rank-tagged [`STEP_SPAN`] spans by step index and reports
/// max/mean rank time and the critical-path rank for each. Empty when
/// the profile has no rank-tagged step spans (serial runs).
pub fn straggler_report(p: &Profile) -> Vec<StepStats> {
    // step -> (rank, dur) samples, in capture order.
    let mut by_step: BTreeMap<u64, Vec<(u32, u64)>> = BTreeMap::new();
    for s in &p.spans {
        if s.kind == SpanKind::Complete && s.name == STEP_SPAN && s.rank != NO_RANK {
            by_step.entry(s.arg).or_default().push((s.rank, s.dur_ns));
        }
    }
    by_step
        .into_iter()
        .map(|(step, samples)| {
            let (slowest_rank, max_ns) = samples
                .iter()
                .copied()
                .max_by_key(|&(rank, dur)| (dur, rank))
                .unwrap_or((0, 0));
            let mean_ns =
                samples.iter().map(|&(_, d)| d as f64).sum::<f64>() / samples.len() as f64;
            StepStats {
                step,
                ranks: samples.len(),
                max_ns,
                mean_ns,
                slowest_rank,
            }
        })
        .collect()
}

/// Render the straggler report as a text table, one row per step, with
/// an overall summary line naming the most frequent critical-path rank.
pub fn render_straggler_report(stats: &[StepStats]) -> String {
    let mut out = String::new();
    if stats.is_empty() {
        out.push_str("(no rank-tagged step spans; straggler report empty)\n");
        return out;
    }
    let _ = writeln!(
        out,
        "{:>6} {:>6} {:>12} {:>12} {:>10} {:>8}",
        "step", "ranks", "max ms", "mean ms", "imbalance", "slowest"
    );
    for s in stats {
        let _ = writeln!(
            out,
            "{:>6} {:>6} {:>12.3} {:>12.3} {:>9.2}x {:>8}",
            s.step,
            s.ranks,
            s.max_ns as f64 / 1e6,
            s.mean_ns / 1e6,
            s.imbalance(),
            format!("rank {}", s.slowest_rank),
        );
    }
    let mut tally: BTreeMap<u32, usize> = BTreeMap::new();
    for s in stats {
        *tally.entry(s.slowest_rank).or_default() += 1;
    }
    if let Some((&rank, &n)) = tally.iter().max_by_key(|&(rank, n)| (*n, std::cmp::Reverse(*rank)))
    {
        let worst = stats
            .iter()
            .map(|s| s.imbalance())
            .fold(1.0f64, f64::max);
        let _ = writeln!(
            out,
            "critical path: rank {} slowest in {}/{} steps; worst imbalance {:.2}x",
            rank,
            n,
            stats.len(),
            worst
        );
    }
    out
}

// ---------------------------------------------------------------------
// Structural validation of the chrome://tracing export.
// ---------------------------------------------------------------------

/// What [`validate_chrome_json`] learned about a trace, for tests and
/// CLI assertions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChromeSummary {
    /// Total events in `traceEvents` (including metadata).
    pub events: usize,
    /// Ranks with at least one span row (derived from per-rank pids).
    pub ranks: Vec<u32>,
    /// Flow ids with both an `"s"` and an `"f"` event.
    pub flow_pairs: usize,
    /// Flow ids missing one side.
    pub unmatched_flows: usize,
}

/// Structurally validate a chrome://tracing JSON document:
///
/// * parses as JSON, with a `traceEvents` array of objects;
/// * every event has a string `"ph"` and a numeric, non-negative `"ts"`
///   (metadata `"M"` exempt);
/// * `"B"`/`"E"` duration events balance per (pid, tid) track;
/// * timestamps are monotonically non-decreasing per (pid, tid) track
///   (counter and metadata events exempt);
/// * flow `"s"`/`"f"` events carry ids, reported as matched pairs.
///
/// Returns a [`ChromeSummary`] or a message pinpointing the first
/// structural violation.
pub fn validate_chrome_json(json: &str) -> Result<ChromeSummary, String> {
    let doc = Json::parse(json)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;

    let mut summary = ChromeSummary {
        events: events.len(),
        ..ChromeSummary::default()
    };
    let mut open: BTreeMap<(u64, u64), u64> = BTreeMap::new(); // B/E depth per track
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut flow_s: Vec<f64> = Vec::new();
    let mut flow_f: Vec<f64> = Vec::new();
    let mut ranks: Vec<u32> = Vec::new();

    for (i, ev) in events.iter().enumerate() {
        let obj = || format!("traceEvents[{i}]");
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("{}: missing \"ph\"", obj()))?;
        if ph == "M" {
            continue;
        }
        let ts = ev
            .get("ts")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("{}: missing numeric \"ts\"", obj()))?;
        if ts < 0.0 {
            return Err(format!("{}: negative ts {ts}", obj()));
        }
        let pid = ev.get("pid").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        if ph == "C" {
            continue; // counter tracks have their own timeline
        }
        let tid = ev.get("tid").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        let track = (pid, tid);

        let prev = last_ts.insert(track, ts);
        if let Some(prev) = prev {
            if ts < prev {
                return Err(format!(
                    "{}: ts {ts} goes backwards on track (pid {pid}, tid {tid}); previous {prev}",
                    obj()
                ));
            }
            last_ts.insert(track, ts);
        }

        if pid > 0 && matches!(ph, "X" | "i" | "s" | "f" | "B" | "E") {
            let rank = (pid - 1) as u32;
            if !ranks.contains(&rank) {
                ranks.push(rank);
            }
        }

        match ph {
            "B" => *open.entry(track).or_default() += 1,
            "E" => {
                let depth = open.entry(track).or_default();
                if *depth == 0 {
                    return Err(format!(
                        "{}: \"E\" with no open \"B\" on track (pid {pid}, tid {tid})",
                        obj()
                    ));
                }
                *depth -= 1;
            }
            "s" | "f" => {
                let id = ev
                    .get("id")
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("{}: flow event missing \"id\"", obj()))?;
                if ph == "s" {
                    flow_s.push(id);
                } else {
                    flow_f.push(id);
                }
            }
            _ => {}
        }
    }

    if let Some(((pid, tid), depth)) = open.iter().find(|(_, &d)| d > 0) {
        return Err(format!(
            "unbalanced B/E: {depth} open \"B\" left on track (pid {pid}, tid {tid})"
        ));
    }

    flow_s.sort_by(f64::total_cmp);
    flow_f.sort_by(f64::total_cmp);
    let mut i = 0;
    let mut j = 0;
    while i < flow_s.len() && j < flow_f.len() {
        match flow_s[i].total_cmp(&flow_f[j]) {
            std::cmp::Ordering::Equal => {
                summary.flow_pairs += 1;
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                summary.unmatched_flows += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                summary.unmatched_flows += 1;
                j += 1;
            }
        }
    }
    summary.unmatched_flows += (flow_s.len() - i) + (flow_f.len() - j);

    ranks.sort_unstable();
    summary.ranks = ranks;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::SpanRecord;

    #[test]
    fn message_id_roundtrips() {
        let id = message_id(3, 0, 0x207, 41);
        let fields = (
            id >> 56,
            (id >> 48) & 0xff,
            (id >> 32) & 0xffff,
            id & 0xffff_ffff,
        );
        assert_eq!(fields, (3, 0, 0x207, 41));
        assert_ne!(message_id(0, 1, 7, 2), message_id(1, 0, 7, 2));
    }

    fn step_span(rank: u32, step: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name: STEP_SPAN,
            rank,
            start_ns: step * 1_000,
            dur_ns,
            kind: SpanKind::Complete,
            arg: step,
            ..SpanRecord::EMPTY
        }
    }

    #[test]
    fn straggler_report_names_slowest_rank_per_step() {
        let p = Profile {
            spans: vec![
                step_span(0, 0, 100),
                step_span(1, 0, 300),
                step_span(0, 1, 500),
                step_span(1, 1, 200),
                // Unranked spans are ignored.
                SpanRecord {
                    name: STEP_SPAN,
                    dur_ns: 9_999,
                    kind: SpanKind::Complete,
                    ..SpanRecord::EMPTY
                },
            ],
            ..Profile::default()
        };
        let stats = straggler_report(&p);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].slowest_rank, 1);
        assert_eq!(stats[0].max_ns, 300);
        assert_eq!(stats[0].mean_ns, 200.0);
        assert_eq!(stats[0].ranks, 2);
        assert!((stats[0].imbalance() - 1.5).abs() < 1e-9);
        assert_eq!(stats[1].slowest_rank, 0);

        let rendered = render_straggler_report(&stats);
        assert!(rendered.contains("slowest"));
        assert!(rendered.contains("rank 1"));
        assert!(rendered.contains("critical path"));
    }

    #[test]
    fn straggler_report_empty_without_step_spans() {
        let stats = straggler_report(&Profile::default());
        assert!(stats.is_empty());
        assert!(render_straggler_report(&stats).contains("empty"));
    }

    #[test]
    fn validator_accepts_own_export() {
        let mut p = Profile {
            spans: vec![
                step_span(0, 0, 100),
                step_span(1, 0, 300),
                SpanRecord {
                    name: "halo_send",
                    rank: 0,
                    start_ns: 10,
                    kind: SpanKind::FlowStart,
                    arg: message_id(0, 1, 7, 0),
                    ..SpanRecord::EMPTY
                },
                SpanRecord {
                    name: "halo_recv",
                    rank: 1,
                    start_ns: 20,
                    kind: SpanKind::FlowEnd,
                    arg: message_id(0, 1, 7, 0),
                    ..SpanRecord::EMPTY
                },
            ],
            ..Profile::default()
        };
        p.spans.sort_by_key(|r| (r.start_ns, r.thread));
        p.hists.add(crate::histogram::Hist::HaloWaitNanos, 500);
        let summary = validate_chrome_json(&p.to_chrome_json()).expect("valid");
        assert_eq!(summary.ranks, vec![0, 1]);
        assert_eq!(summary.flow_pairs, 1);
        assert_eq!(summary.unmatched_flows, 0);
        assert!(summary.events >= 4);
    }

    #[test]
    fn validator_rejects_unbalanced_and_backwards() {
        let unbalanced = r#"{"traceEvents": [
            {"ph": "B", "name": "a", "ts": 1, "pid": 0, "tid": 0}
        ]}"#;
        let err = validate_chrome_json(unbalanced).unwrap_err();
        assert!(err.contains("unbalanced"), "{err}");

        let backwards = r#"{"traceEvents": [
            {"ph": "X", "name": "a", "ts": 10, "dur": 1, "pid": 0, "tid": 0},
            {"ph": "X", "name": "b", "ts": 5, "dur": 1, "pid": 0, "tid": 0}
        ]}"#;
        let err = validate_chrome_json(backwards).unwrap_err();
        assert!(err.contains("backwards"), "{err}");

        let stray_e = r#"{"traceEvents": [
            {"ph": "E", "name": "a", "ts": 1, "pid": 0, "tid": 0}
        ]}"#;
        let err = validate_chrome_json(stray_e).unwrap_err();
        assert!(err.contains("no open"), "{err}");

        assert!(validate_chrome_json("not json").is_err());
        assert!(validate_chrome_json("{}").is_err());
    }

    #[test]
    fn validator_counts_unmatched_flows() {
        let j = r#"{"traceEvents": [
            {"ph": "s", "name": "halo", "id": 7, "ts": 1, "pid": 1, "tid": 0},
            {"ph": "s", "name": "halo", "id": 8, "ts": 2, "pid": 1, "tid": 0},
            {"ph": "f", "name": "halo", "id": 7, "ts": 3, "pid": 2, "tid": 0}
        ]}"#;
        let s = validate_chrome_json(j).unwrap();
        assert_eq!(s.flow_pairs, 1);
        assert_eq!(s.unmatched_flows, 1);
        assert_eq!(s.ranks, vec![0, 1]);
    }
}
