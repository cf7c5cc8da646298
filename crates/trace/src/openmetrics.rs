//! OpenMetrics text exposition: renderer + strict validator.
//!
//! The sampler atomically rewrites one exposition file per sample
//! (current totals, not a time series — that is the JSONL stream's
//! job), so any OpenMetrics scraper pointed at `--metrics-file`'s `.om`
//! sibling sees a consistent snapshot. The renderer and the validator
//! live together so the contract is enforced from both sides: CI runs a
//! chaos-kill job and feeds the emitted file back through [`validate`].
//!
//! Mapping: sum-mode counters → `counter` families (`_total` samples),
//! max-mode counters → `gauge`s, histograms → `summary` families
//! (quantile-labeled samples plus `_count`/`_sum`), the per-rank table →
//! `gauge` families labeled by rank. Every family carries `# TYPE`,
//! `# HELP` and a non-empty `# UNIT`; the exposition ends with `# EOF`.

use crate::counters::{Counter, CounterSet, MergeMode};
use crate::histogram::{Hist, HistSet};
use crate::hub::RankSample;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Per-rank gauge families: (suffix, unit, help, extractor).
const RANK_FAMILIES: [(&str, &str, &str); 6] = [
    ("steps", "count", "total steps completed by the rank"),
    ("last_step", "count", "most recent step index"),
    ("halo_wait_ns", "ns", "cumulative halo wait"),
    ("steals", "count", "pool tiles stolen"),
    ("retransmits", "count", "reliability retransmits"),
    ("recoveries", "count", "spare adoptions of this rank"),
];

fn rank_value(s: &RankSample, suffix: &str) -> u64 {
    match suffix {
        "steps" => s.steps,
        "last_step" => s.last_step,
        "halo_wait_ns" => s.halo_wait_ns,
        "steals" => s.steals,
        "retransmits" => s.retransmits,
        "recoveries" => s.recoveries,
        _ => unreachable!("unknown rank family"),
    }
}

/// Render one complete OpenMetrics exposition of a hub snapshot.
pub fn render(
    counters: &CounterSet,
    hists: &HistSet,
    ranks: &[RankSample],
    alerts_total: u64,
) -> String {
    let mut out = String::with_capacity(4096);

    for c in Counter::ALL {
        let fam = format!("msc_{}", c.name());
        let _ = writeln!(out, "# HELP {fam} msc counter {}", c.name());
        let _ = writeln!(out, "# UNIT {fam} {}", c.unit());
        match c.merge_mode() {
            MergeMode::Sum => {
                let _ = writeln!(out, "# TYPE {fam} counter");
                let _ = writeln!(out, "{fam}_total {}", counters.get(c));
            }
            MergeMode::Max => {
                let _ = writeln!(out, "# TYPE {fam} gauge");
                let _ = writeln!(out, "{fam} {}", counters.get(c));
            }
        }
    }

    for h in Hist::ALL {
        let fam = format!("msc_{}", h.name());
        let hist = hists.get(h);
        let _ = writeln!(out, "# HELP {fam} msc latency histogram {}", h.name());
        let _ = writeln!(out, "# UNIT {fam} {}", h.unit());
        let _ = writeln!(out, "# TYPE {fam} summary");
        for (q, v) in [
            ("0.5", hist.p50()),
            ("0.9", hist.p90()),
            ("0.99", hist.p99()),
        ] {
            let _ = writeln!(out, "{fam}{{quantile=\"{q}\"}} {v}");
        }
        let _ = writeln!(out, "{fam}_count {}", hist.count());
        let _ = writeln!(out, "{fam}_sum {}", hist.sum());
    }

    // `by_rank` prefix keeps these disjoint from the scalar counter
    // vocabulary (e.g. `rank_recoveries` → msc_rank_recoveries).
    for (suffix, unit, help) in RANK_FAMILIES {
        let fam = format!("msc_by_rank_{suffix}");
        let _ = writeln!(out, "# HELP {fam} per-rank {help}");
        let _ = writeln!(out, "# UNIT {fam} {unit}");
        let _ = writeln!(out, "# TYPE {fam} gauge");
        for s in ranks {
            let _ = writeln!(
                out,
                "{fam}{{rank=\"{}\"}} {}",
                s.rank,
                rank_value(s, suffix)
            );
        }
    }

    out.push_str("# HELP msc_alerts alerts raised by the online detector\n");
    out.push_str("# UNIT msc_alerts count\n");
    out.push_str("# TYPE msc_alerts counter\n");
    let _ = writeln!(out, "msc_alerts_total {alerts_total}");

    out.push_str("# EOF\n");
    out
}

/// A parsed exposition: family → type, sample key (name + label set as
/// written) → value.
#[derive(Debug, Clone, Default)]
pub struct OmDoc {
    pub families: BTreeMap<String, String>,
    pub samples: BTreeMap<String, f64>,
}

impl OmDoc {
    /// Resolve a sample key back to its declared family, honoring the
    /// `_total`/`_count`/`_sum` suffixes.
    fn family_of(&self, sample_name: &str) -> Option<&str> {
        if let Some((fam, _)) = self.families.get_key_value(sample_name) {
            return Some(fam);
        }
        for suffix in ["_total", "_count", "_sum"] {
            if let Some(base) = sample_name.strip_suffix(suffix) {
                if let Some((fam, _)) = self.families.get_key_value(base) {
                    return Some(fam);
                }
            }
        }
        None
    }
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Strictly validate one OpenMetrics exposition. Enforces: `# EOF`
/// terminator (exactly once, at the end); well-formed `# TYPE`/`# UNIT`
/// metadata with no duplicate or retroactive declarations; a non-empty
/// unit for every family; samples only for declared families; counter
/// samples named `<family>_total` with non-negative finite values; no
/// duplicate series (same name + label set twice).
pub fn validate(text: &str) -> Result<OmDoc, String> {
    let mut doc = OmDoc::default();
    let mut units: BTreeMap<String, String> = BTreeMap::new();
    let mut seen_eof = false;

    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.trim().is_empty() {
            return Err(format!("line {n}: blank line is not allowed"));
        }
        if seen_eof {
            return Err(format!("line {n}: content after # EOF"));
        }
        if line == "# EOF" {
            seen_eof = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            let arg = parts.next().unwrap_or("");
            if !valid_name(name) {
                return Err(format!("line {n}: bad metric name {name:?}"));
            }
            match keyword {
                "HELP" => {}
                "UNIT" => {
                    if arg.is_empty() {
                        return Err(format!("line {n}: empty UNIT for {name}"));
                    }
                    units.insert(name.to_string(), arg.to_string());
                }
                "TYPE" => {
                    if !matches!(arg, "counter" | "gauge" | "summary" | "histogram" | "info") {
                        return Err(format!("line {n}: unknown TYPE {arg:?} for {name}"));
                    }
                    if doc
                        .families
                        .insert(name.to_string(), arg.to_string())
                        .is_some()
                    {
                        return Err(format!("line {n}: duplicate TYPE for {name}"));
                    }
                }
                other => return Err(format!("line {n}: unknown metadata keyword {other:?}")),
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {n}: malformed comment {line:?}"));
        }

        // Sample line: `name value` or `name{labels} value`.
        let (series, value_str) = match line.rfind(' ') {
            Some(i) => (&line[..i], &line[i + 1..]),
            None => return Err(format!("line {n}: sample without value: {line:?}")),
        };
        let name = match series.find('{') {
            Some(i) => {
                if !series.ends_with('}') {
                    return Err(format!("line {n}: unterminated label set: {series:?}"));
                }
                let labels = &series[i + 1..series.len() - 1];
                if labels.is_empty() || labels.matches('"').count() % 2 != 0 {
                    return Err(format!("line {n}: malformed labels: {series:?}"));
                }
                &series[..i]
            }
            None => series,
        };
        if !valid_name(name) {
            return Err(format!("line {n}: bad sample name {name:?}"));
        }
        let value: f64 = value_str
            .parse()
            .map_err(|_| format!("line {n}: bad value {value_str:?}"))?;
        if !value.is_finite() {
            return Err(format!("line {n}: non-finite value for {name}"));
        }
        let Some(fam) = doc.family_of(name).map(str::to_string) else {
            return Err(format!("line {n}: sample {name} has no preceding # TYPE"));
        };
        let ty = doc.families[&fam].clone();
        if ty == "counter" {
            if !name.ends_with("_total") && !name.ends_with("_created") {
                return Err(format!(
                    "line {n}: counter family {fam} sample must end in _total, got {name}"
                ));
            }
            if value < 0.0 {
                return Err(format!("line {n}: negative counter {name}"));
            }
        }
        if !units.contains_key(&fam) {
            return Err(format!("line {n}: family {fam} has no # UNIT"));
        }
        if doc.samples.insert(series.to_string(), value).is_some() {
            return Err(format!("line {n}: duplicate series {series:?}"));
        }
    }

    if !seen_eof {
        return Err("missing # EOF terminator".to_string());
    }
    for fam in doc.families.keys() {
        if !units.contains_key(fam) {
            return Err(format!("family {fam} declared without # UNIT"));
        }
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ranks() -> Vec<RankSample> {
        vec![
            RankSample {
                rank: 0,
                steps: 10,
                last_step: 9,
                halo_wait_ns: 100,
                ..Default::default()
            },
            RankSample {
                rank: 1,
                steps: 8,
                last_step: 7,
                steals: 3,
                ..Default::default()
            },
        ]
    }

    #[test]
    fn rendered_exposition_validates() {
        let mut c = CounterSet::new();
        c.set(Counter::Steps, 20);
        c.set(Counter::SpmPeakBytes, 4096);
        let mut h = HistSet::new();
        h.add(Hist::HaloWaitNanos, 1500);
        let text = render(&c, &h, &sample_ranks(), 2);
        let doc = validate(&text).expect("rendered output must validate");
        assert_eq!(doc.samples["msc_steps_total"], 20.0);
        assert_eq!(doc.samples["msc_spm_peak_bytes"], 4096.0);
        assert_eq!(doc.samples["msc_by_rank_steps{rank=\"0\"}"], 10.0);
        assert_eq!(doc.samples["msc_by_rank_steals{rank=\"1\"}"], 3.0);
        assert_eq!(doc.samples["msc_alerts_total"], 2.0);
        assert_eq!(doc.samples["msc_halo_wait_count"], 1.0);
        assert_eq!(doc.families["msc_halo_wait"], "summary");
    }

    #[test]
    fn rejects_missing_eof_and_duplicates_and_unitless() {
        assert!(validate("# TYPE x counter\n# UNIT x count\nx_total 1\n").is_err()); // no EOF
        let dup = "# TYPE x counter\n# UNIT x count\nx_total 1\nx_total 2\n# EOF\n";
        assert!(validate(dup).unwrap_err().contains("duplicate series"));
        let unitless = "# TYPE x counter\nx_total 1\n# EOF\n";
        assert!(validate(unitless).unwrap_err().contains("no # UNIT"));
        let undeclared = "# UNIT x count\nx_total 1\n# EOF\n";
        assert!(validate(undeclared)
            .unwrap_err()
            .contains("no preceding # TYPE"));
        let retype = "# TYPE x counter\n# TYPE x gauge\n# UNIT x count\n# EOF\n";
        assert!(validate(retype).unwrap_err().contains("duplicate TYPE"));
        let trailing = "# EOF\n# TYPE x counter\n";
        assert!(validate(trailing).unwrap_err().contains("after # EOF"));
        let negative = "# TYPE x counter\n# UNIT x count\nx_total -4\n# EOF\n";
        assert!(validate(negative).unwrap_err().contains("negative counter"));
    }

    #[test]
    fn all_vocabulary_families_are_unique_after_prefixing() {
        // A counter and a histogram with the same stable name would
        // collide as msc_<name>; the render path assumes disjointness.
        let text = render(&CounterSet::new(), &HistSet::new(), &[], 0);
        validate(&text).expect("empty snapshot renders cleanly");
    }
}
