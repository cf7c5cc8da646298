//! Profile exporters: a human-readable table and chrome://tracing JSON.
//!
//! Both renderings are deterministic for a given [`Profile`] — counters
//! appear in declaration order, span aggregates sorted by name, raw
//! events in (start, thread) order — so they can be golden-file tested
//! and diffed across runs.

use crate::counters::Counter;
use crate::json::quoted;
use crate::profile::Profile;
use crate::spans::{SpanKind, NO_RANK};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Render the human-readable report: non-zero counters with units,
/// followed by per-name span aggregates (count / total / mean).
pub fn table(p: &Profile) -> String {
    let mut out = String::new();
    let label = if p.label.is_empty() { "run" } else { &p.label };
    let _ = writeln!(out, "== profile: {label} ==");

    let _ = writeln!(out, "{:<18} {:>16} unit", "counter", "value");
    for (c, v) in p.counters.iter() {
        if v == 0 {
            continue;
        }
        match c.unit() {
            "ns" => {
                let _ = writeln!(out, "{:<18} {:>16.3} ms", c.name(), v as f64 / 1e6);
            }
            unit => {
                let _ = writeln!(out, "{:<18} {:>16} {}", c.name(), v, unit);
            }
        }
    }
    if p.counters.is_zero() {
        let _ = writeln!(out, "(no counters recorded)");
    }

    // Latency distributions: conservative log2-bucket quantiles
    // (see crate::histogram) next to the exact mean and max.
    if !p.hists.is_empty() {
        let _ = writeln!(
            out,
            "{:<18} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "histogram", "count", "mean us", "p50 us", "p90 us", "p99 us", "max us"
        );
        for (h, hist) in p.hists.iter() {
            if hist.is_empty() {
                continue;
            }
            let us = |v: u64| v as f64 / 1e3;
            let _ = writeln!(
                out,
                "{:<18} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                h.name(),
                hist.count(),
                hist.mean() / 1e3,
                us(hist.p50()),
                us(hist.p90()),
                us(hist.p99()),
                us(hist.max()),
            );
        }
    }

    // Aggregate the timeline per span name.
    let mut agg: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for s in p.spans.iter().filter(|s| s.kind == SpanKind::Complete) {
        let e = agg.entry(s.name).or_insert((0, 0));
        e.0 += 1;
        e.1 += s.dur_ns;
    }
    if !agg.is_empty() {
        let _ = writeln!(
            out,
            "{:<18} {:>8} {:>12} {:>12}",
            "span", "count", "total ms", "mean us"
        );
        for (name, (count, total_ns)) in &agg {
            let _ = writeln!(
                out,
                "{:<18} {:>8} {:>12.3} {:>12.3}",
                name,
                count,
                *total_ns as f64 / 1e6,
                *total_ns as f64 / 1e3 / *count as f64,
            );
        }
    }
    if p.dropped_spans > 0 {
        let _ = writeln!(out, "!! dropped spans: {}", p.dropped_spans);
    }
    out
}

/// chrome://tracing process id for a rank tag: stitched traces give each
/// rank its own process row (`rank + 1`); records made outside any rank
/// (serial runs, worker pools) stay on pid 0.
pub fn pid_of_rank(rank: u32) -> u64 {
    if rank == NO_RANK {
        0
    } else {
        rank as u64 + 1
    }
}

/// Render the profile as chrome://tracing "trace event format" JSON
/// (load via chrome://tracing or https://ui.perfetto.dev).
///
/// Spans become `"X"` complete events and instants become `"i"` events,
/// with microsecond timestamps relative to the trace epoch. Stitched
/// cross-rank traces put each rank in its own process row (see
/// [`pid_of_rank`]) with `"s"`/`"f"` flow events drawing sender→receiver
/// arrows keyed on the packed message identity; non-empty histograms
/// become `"C"` counter tracks. Counters are attached under `otherData`
/// so the report is self-contained.
pub fn chrome_json(p: &Profile) -> String {
    let mut out = String::from("{\n  \"traceEvents\": [\n");

    // Name the process after the profile label; also guarantees the
    // event array is non-empty, so every span gets a comma prefix.
    let _ = write!(
        out,
        "    {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"args\": {{\"name\": {}}}}}",
        quoted(if p.label.is_empty() { "msc" } else { &p.label })
    );

    // One process-name metadata row per rank present in the timeline.
    let mut ranks: Vec<u32> = p
        .spans
        .iter()
        .map(|s| s.rank)
        .filter(|&r| r != NO_RANK)
        .collect();
    ranks.sort_unstable();
    ranks.dedup();
    for r in &ranks {
        let _ = write!(
            out,
            ",\n    {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {}, \"tid\": 0, \"args\": {{\"name\": {}}}}}",
            pid_of_rank(*r),
            quoted(&format!("rank {r}"))
        );
    }

    for s in &p.spans {
        out.push_str(",\n");
        let ts_us = s.start_ns as f64 / 1e3;
        let pid = pid_of_rank(s.rank);
        match s.kind {
            SpanKind::Complete => {
                let dur_us = s.dur_ns as f64 / 1e3;
                let _ = write!(
                    out,
                    "    {{\"name\": {}, \"cat\": \"msc\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": {}, \"tid\": {}}}",
                    quoted(s.name),
                    json_f64(ts_us),
                    json_f64(dur_us),
                    pid,
                    s.thread
                );
            }
            SpanKind::Instant => {
                let _ = write!(
                    out,
                    "    {{\"name\": {}, \"cat\": \"msc\", \"ph\": \"i\", \"ts\": {}, \"s\": \"t\", \"pid\": {}, \"tid\": {}}}",
                    quoted(s.name),
                    json_f64(ts_us),
                    pid,
                    s.thread
                );
            }
            SpanKind::FlowStart => {
                let _ = write!(
                    out,
                    "    {{\"name\": {}, \"cat\": \"flow\", \"ph\": \"s\", \"id\": {}, \"ts\": {}, \"pid\": {}, \"tid\": {}}}",
                    quoted(s.name),
                    s.arg,
                    json_f64(ts_us),
                    pid,
                    s.thread
                );
            }
            SpanKind::FlowEnd => {
                let _ = write!(
                    out,
                    "    {{\"name\": {}, \"cat\": \"flow\", \"ph\": \"f\", \"bp\": \"e\", \"id\": {}, \"ts\": {}, \"pid\": {}, \"tid\": {}}}",
                    quoted(s.name),
                    s.arg,
                    json_f64(ts_us),
                    pid,
                    s.thread
                );
            }
        }
    }

    // Histogram summaries as counter tracks (one "C" sample per series,
    // values in nanoseconds).
    for (h, hist) in p.hists.iter() {
        if hist.is_empty() {
            continue;
        }
        let _ = write!(
            out,
            ",\n    {{\"name\": {}, \"cat\": \"hist\", \"ph\": \"C\", \"ts\": 0, \"pid\": 0, \"args\": {{\"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}}}",
            quoted(&format!("hist:{}", h.name())),
            hist.p50(),
            hist.p90(),
            hist.p99(),
            hist.max()
        );
    }

    out.push_str("\n  ],\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {\n");
    let mut first_counter = true;
    for c in Counter::ALL {
        let v = p.counters.get(c);
        if v == 0 {
            continue;
        }
        if !first_counter {
            out.push_str(",\n");
        }
        first_counter = false;
        let _ = write!(out, "    {}: {}", quoted(c.name()), v);
    }
    if p.dropped_spans > 0 {
        if !first_counter {
            out.push_str(",\n");
        }
        let _ = write!(out, "    \"dropped_spans\": {}", p.dropped_spans);
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Format a microsecond value without float noise: integers print bare,
/// fractions keep three decimals (nanosecond resolution).
fn json_f64(v: f64) -> String {
    if v.fract() == 0.0 {
        format!("{}", v as u64)
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CounterSet;
    use crate::spans::SpanRecord;

    fn sample_profile() -> Profile {
        let mut c = CounterSet::new();
        c.set(Counter::TilesExecuted, 12);
        c.set(Counter::PackNanos, 1_500_000);
        let mut p = Profile::from_counters("sample", c);
        p.spans = vec![
            SpanRecord {
                name: "step",
                thread: 0,
                start_ns: 1_000,
                dur_ns: 2_500,
                kind: SpanKind::Complete,
                ..SpanRecord::EMPTY
            },
            SpanRecord {
                name: "mark",
                thread: 1,
                start_ns: 2_000,
                dur_ns: 0,
                kind: SpanKind::Instant,
                ..SpanRecord::EMPTY
            },
        ];
        p
    }

    fn stitched_profile() -> Profile {
        let mut p = sample_profile();
        p.spans.push(SpanRecord {
            name: "halo_send",
            thread: 2,
            rank: 0,
            start_ns: 3_000,
            kind: SpanKind::FlowStart,
            arg: 0xdead,
            ..SpanRecord::EMPTY
        });
        p.spans.push(SpanRecord {
            name: "halo_recv",
            thread: 3,
            rank: 1,
            start_ns: 4_000,
            kind: SpanKind::FlowEnd,
            arg: 0xdead,
            ..SpanRecord::EMPTY
        });
        p.hists.add(crate::histogram::Hist::HaloWaitNanos, 1_000);
        p
    }

    #[test]
    fn table_lists_nonzero_counters_and_span_aggregates() {
        let t = table(&sample_profile());
        assert!(t.contains("tiles_executed"));
        assert!(t.contains("12"));
        assert!(t.contains("pack_time"));
        assert!(t.contains("1.500 ms"));
        assert!(t.contains("step"));
        assert!(!t.contains("dma_get_bytes"), "zero counters are elided");
    }

    #[test]
    fn chrome_json_is_structurally_sound() {
        let j = chrome_json(&sample_profile());
        assert!(j.contains("\"traceEvents\""));
        assert!(j.contains("\"ph\": \"X\""));
        assert!(j.contains("\"ph\": \"i\""));
        assert!(j.contains("\"tiles_executed\": 12"));
        // Balanced braces/brackets — cheap structural sanity.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn table_includes_histogram_rows() {
        let t = table(&stitched_profile());
        assert!(t.contains("histogram"));
        assert!(t.contains("halo_wait"));
        assert!(t.contains("p99 us"));
    }

    #[test]
    fn chrome_json_stitches_ranks_flows_and_hist_tracks() {
        let j = chrome_json(&stitched_profile());
        // Per-rank process rows with names.
        assert!(j.contains("\"pid\": 1, \"tid\": 0, \"args\": {\"name\": \"rank 0\"}"));
        assert!(j.contains("\"pid\": 2, \"tid\": 0, \"args\": {\"name\": \"rank 1\"}"));
        // Flow events share the message id across ranks.
        assert!(j.contains("\"ph\": \"s\", \"id\": 57005"));
        assert!(j.contains("\"ph\": \"f\", \"bp\": \"e\", \"id\": 57005"));
        // Histogram counter track.
        assert!(j.contains("\"hist:halo_wait\""));
        assert!(j.contains("\"ph\": \"C\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn pid_mapping_keeps_unranked_on_zero() {
        assert_eq!(pid_of_rank(NO_RANK), 0);
        assert_eq!(pid_of_rank(0), 1);
        assert_eq!(pid_of_rank(3), 4);
    }

    #[test]
    fn json_f64_formats() {
        assert_eq!(json_f64(3.0), "3");
        assert_eq!(json_f64(2.5), "2.500");
    }
}
