//! `msc-benchmark compare A.jsonl B.jsonl`: one row per workload and
//! end-to-end metric, judged against the bound `BENCHMARK.json` fixes.
//! A file holds one line per run, as `run --out` appends them; several
//! runs of a workload are reduced to their median and quartile spread.

use crate::common::Spec;
use crate::json::Json;
use crate::stats::{judge, summarize, worsening, Verdict};
use std::collections::BTreeMap;
use std::path::Path;

/// `(workload, metric) -> values`, tracing-off runs only.
type Recording = BTreeMap<(String, String), Vec<f64>>;

pub fn parse_recording(text: &str) -> Result<Recording, String> {
    let mut out = Recording::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| format!("line {}: no `{key}`", i + 1))
        };
        if field("trace")?.as_f64() != Some(0.0) {
            continue;
        }
        let workload = field("workload")?
            .as_str()
            .ok_or("`workload` is not a string")?
            .to_string();
        let metrics = field("result")?
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("line {}: no metrics", i + 1))?;
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("line {}: `{name}` has no value", i + 1))?;
            out.entry((workload.clone(), name.clone()))
                .or_default()
                .push(v);
        }
    }
    Ok(out)
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub worsening: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

pub fn compare(spec: &Spec, a: &Recording, b: &Recording) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let key = (workload.clone(), m.name.clone());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                return Err(format!(
                    "{} on {workload} is missing from a recording",
                    m.name
                ));
            };
            let (sa, sb) = (summarize(va), summarize(vb));
            let bound = m.bound.ok_or_else(|| format!("{} has no bound", m.name))?;
            let spread = sa.spread().max(sb.spread());
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                a: sa.median,
                b: sb.median,
                worsening: worsening(sa.median, sb.median, m.better),
                spread,
                bound,
                verdict: judge(
                    sa.median,
                    sb.median,
                    sa.spread(),
                    sb.spread(),
                    m.better,
                    bound,
                ),
            });
        }
    }
    Ok(rows)
}

/// Prints the table; `Ok(true)` when no row is `worse`.
pub fn run(spec_path: &Path, a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let spec = Spec::load(spec_path)?;
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read {}: {e}", p.display()))
            .and_then(|t| parse_recording(&t))
    };
    let rows = compare(&spec, &read(a_path)?, &read(b_path)?)?;
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B worse", "spread", "bound"
    );
    for r in &rows {
        println!(
            "{:<14} {:<14} {:>14.6} {:>14.6} {:>8.2}% {:>7.2}% {:>6.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worsening * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.as_str()
        );
    }
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} rows: {worse} worse, {unresolved} unresolved, {} within",
        rows.len(),
        rows.len() - worse - unresolved
    );
    Ok(worse == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"workloads": [{"name": "w", "why": "x"}],
        "end_to_end": [{"name": "op_p10_ms", "unit": "ms", "better": "lower", "bound": 0.1},
                       {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}],
        "per_layer": []}"#;

    fn line(trace: u8, op: f64, work: f64) -> String {
        format!(
            r#"{{"workload": "w", "seed": 1, "trace": {trace}, "result": {{"correct": true, "attempted": 1, "failed": 0, "metrics": {{"op_p10_ms": {{"value": {op}, "unit": "ms"}}, "work_per_s": {{"value": {work}, "unit": "1/s"}}}}}}}}"#
        )
    }

    #[test]
    fn a_slowdown_past_the_bound_is_worse_and_a_small_one_is_within() {
        let spec = Spec::parse(SPEC).unwrap();
        let a = parse_recording(&line(0, 10.0, 100.0)).unwrap();
        let rows = compare(&spec, &a, &parse_recording(&line(0, 10.5, 80.0)).unwrap()).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Within);
        assert_eq!(rows[1].verdict, Verdict::Worse);
        assert!((rows[1].worsening - 0.2).abs() < 1e-12);
    }

    #[test]
    fn several_runs_reduce_to_median_and_a_wide_spread_is_unresolved() {
        let spec = Spec::parse(SPEC).unwrap();
        let a = parse_recording(
            &[
                line(0, 10.0, 100.0),
                line(0, 10.1, 100.0),
                line(0, 9.9, 100.0),
            ]
            .join("\n"),
        )
        .unwrap();
        let b = parse_recording(
            &[
                line(0, 8.0, 100.0),
                line(0, 10.0, 100.0),
                line(0, 12.0, 100.0),
                line(1, 99.0, 1.0),
            ]
            .join("\n"),
        )
        .unwrap();
        let rows = compare(&spec, &a, &b).unwrap();
        // The traced line is ignored: B's median is 10, not 99.
        assert_eq!(rows[0].b, 10.0);
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
        assert_eq!(rows[1].verdict, Verdict::Within);
    }

    #[test]
    fn a_missing_workload_is_an_error() {
        let spec = Spec::parse(SPEC).unwrap();
        let a = parse_recording(&line(0, 10.0, 100.0)).unwrap();
        assert!(compare(&spec, &a, &Recording::new()).is_err());
    }
}
