//! [`Profile`]: a stable, mergeable snapshot of everything the tracer
//! measured — counters plus the span timeline — suitable for reporting
//! and for feeding back into the auto-tuner.

use crate::counters::{Counter, CounterSet};
use crate::histogram::HistSet;
use crate::spans::SpanRecord;

/// Aggregated trace data from one run (or one rank of a run).
///
/// Profiles merge: per-thread span buffers are folded in at capture
/// time, and per-rank profiles combine with [`Profile::merge`], which
/// sums or maxes counters by their declared [merge mode] and
/// concatenates timelines. Merging is commutative on counters and keeps
/// the span order stable (sorted by start time, then thread).
///
/// [merge mode]: crate::counters::MergeMode
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Short run identifier carried into reports (e.g. benchmark name).
    pub label: String,
    pub counters: CounterSet,
    /// Latency distributions (halo wait, pack/unpack, step wall…).
    pub hists: HistSet,
    /// Completed spans and instant events, sorted by (start, thread).
    pub spans: Vec<SpanRecord>,
    /// Spans lost to per-thread buffer saturation.
    pub dropped_spans: u64,
}

impl Profile {
    /// Snapshot the current hub: its counters and histograms as of one
    /// instant, and every thread's span buffer in it.
    pub fn capture(label: impl Into<String>) -> Profile {
        crate::hub::with_current(|hub| {
            let (spans, dropped_spans) = hub.collect_spans();
            let account = hub.read();
            Profile {
                label: label.into(),
                counters: account.counters,
                hists: account.hists,
                spans,
                dropped_spans,
            }
        })
    }

    /// A profile carrying only counter values (no timeline) — the shape
    /// produced when a stats view is converted back for reporting.
    pub fn from_counters(label: impl Into<String>, counters: CounterSet) -> Profile {
        Profile {
            label: label.into(),
            counters,
            hists: HistSet::new(),
            spans: Vec::new(),
            dropped_spans: 0,
        }
    }

    /// Fold another profile (e.g. another rank) into this one.
    pub fn merge(&mut self, other: &Profile) {
        self.counters.merge(&other.counters);
        self.hists.merge(&other.hists);
        self.spans.extend(other.spans.iter().copied());
        self.spans.sort_by_key(|r| (r.start_ns, r.thread));
        self.dropped_spans += other.dropped_spans;
    }

    pub fn get(&self, c: Counter) -> u64 {
        self.counters.get(c)
    }

    /// Wall-clock extent of the recorded timeline in nanoseconds
    /// (zero when no spans were captured).
    pub fn timeline_ns(&self) -> u64 {
        let start = self.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let end = self
            .spans
            .iter()
            .map(|s| s.start_ns + s.dur_ns)
            .max()
            .unwrap_or(0);
        end.saturating_sub(start)
    }

    /// Render the human-readable report (see [`crate::export::table`]).
    pub fn to_table(&self) -> String {
        crate::export::table(self)
    }

    /// Render chrome://tracing-compatible JSON
    /// (see [`crate::export::chrome_json`]).
    pub fn to_chrome_json(&self) -> String {
        crate::export::chrome_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::SpanKind;

    fn rec(name: &'static str, thread: u32, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            thread,
            start_ns,
            dur_ns,
            kind: SpanKind::Complete,
            ..SpanRecord::EMPTY
        }
    }

    #[test]
    fn merge_sums_and_maxes_counters_and_concatenates_spans() {
        let mut a = Profile::from_counters("rank0", {
            let mut c = CounterSet::new();
            c.set(Counter::HaloBytes, 100);
            c.set(Counter::SpmPeakBytes, 600);
            c
        });
        a.spans.push(rec("halo", 0, 50, 10));
        a.dropped_spans = 1;

        let mut b = Profile::from_counters("rank1", {
            let mut c = CounterSet::new();
            c.set(Counter::HaloBytes, 23);
            c.set(Counter::SpmPeakBytes, 512);
            c
        });
        b.spans.push(rec("halo", 1, 20, 5));

        a.merge(&b);
        assert_eq!(a.get(Counter::HaloBytes), 123);
        assert_eq!(a.get(Counter::SpmPeakBytes), 600);
        assert_eq!(a.spans.len(), 2);
        // Re-sorted by start time after merge.
        assert_eq!(a.spans[0].thread, 1);
        assert_eq!(a.dropped_spans, 1);
        assert_eq!(a.timeline_ns(), 40); // [20, 60]
    }

    #[test]
    fn merge_folds_histograms() {
        use crate::histogram::Hist;
        let mut a = Profile::from_counters("rank0", CounterSet::new());
        a.hists.add(Hist::StepWallNanos, 100);
        let mut b = Profile::from_counters("rank1", CounterSet::new());
        b.hists.add(Hist::StepWallNanos, 900);
        a.merge(&b);
        assert_eq!(a.hists.get(Hist::StepWallNanos).count(), 2);
        assert_eq!(a.hists.get(Hist::StepWallNanos).max(), 900);
    }

    #[test]
    fn capture_roundtrips_global_state() {
        let _g = crate::testutil::GLOBAL_TEST_LOCK.lock().unwrap();
        crate::reset();
        {
            let _e = crate::counters::EnableGuard::new();
            crate::record(Counter::TilesExecuted, 7);
            let _s = crate::span("unit");
        }
        let p = Profile::capture("test");
        assert_eq!(p.get(Counter::TilesExecuted), 7);
        assert!(p.spans.iter().any(|s| s.name == "unit"));
        crate::reset();
    }
}
