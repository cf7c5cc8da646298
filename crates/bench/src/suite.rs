//! Recorded benchmark trajectory: a fixed, schema-versioned suite whose
//! results are committed at the repo root (`BENCH_0006.json`) so the
//! project's performance history rides along with its code history.
//!
//! The suite runs two serial and two distributed stencil workloads and an
//! execution-tier A/B case (tap interpreter vs bytecode VM vs the
//! specialized row kernel), and records two kinds of metric per case:
//!
//! * **count** metrics (computed points, tiles, halo messages) — exact
//!   and deterministic; any change between two recordings is a
//!   correctness-level regression and always flagged by [`diff`];
//! * **time** metrics (wall time, halo-wait p90) — machine- and
//!   load-dependent; [`diff`] flags them only past a relative threshold,
//!   and `--counts-only` skips them entirely for noisy CI boxes.
//!
//! [`validate`] checks any recording against the schema before it is
//! trusted, and [`scale_times`] produces a deliberately slowed copy so
//! the regression gate can prove it fires (`mscc bench --doctor`).

use msc_comm::{run_distributed_resilient, RunOptions};
use msc_core::catalog::{benchmark, BenchmarkId};
use msc_core::error::MscError;
use msc_core::error::Result;
use msc_core::prelude::*;
use msc_core::schedule::plan::ExecPlan;
use msc_core::schedule::Schedule;
use msc_exec::driver::{run_program, run_program_tier, Executor};
use msc_exec::{Boundary, ExecTier, Grid};
use msc_trace::Hist;
use msc_trace::Json;
use std::time::Instant;

/// Schema version of the trajectory document; bump on layout changes.
pub const SCHEMA_VERSION: u64 = 6;

/// Canonical file name of the committed trajectory recording.
pub const BENCH_FILE: &str = "BENCH_0006.json";

/// Default relative slowdown on a time metric that counts as a
/// regression (ISSUE: >15%).
pub const DEFAULT_THRESHOLD: f64 = 0.15;

struct CaseSpec {
    name: &'static str,
    bench: BenchmarkId,
    grid: &'static [usize],
    quick_grid: &'static [usize],
    steps: usize,
    /// `None` runs serially; `Some` runs distributed over this grid.
    procs: Option<&'static [usize]>,
    /// Run the case once per execution tier — interpreter, bytecode VM,
    /// specialized — on a single-thread whole-grid plan (pure
    /// per-row compute, no tiling or threading noise), assert the
    /// outputs bit-identical, and record the walls plus the speedups.
    /// Serial only.
    tier_compare: bool,
}

/// The fixed suite. Order and names are part of the schema: diffs match
/// cases by name.
const SUITE: &[CaseSpec] = &[
    CaseSpec {
        name: "s2d9pt_box_serial",
        bench: BenchmarkId::S2d9ptBox,
        grid: &[64, 64],
        quick_grid: &[32, 32],
        steps: 8,
        procs: None,
        tier_compare: false,
    },
    CaseSpec {
        name: "s3d7pt_star_serial",
        bench: BenchmarkId::S3d7ptStar,
        grid: &[32, 32, 32],
        quick_grid: &[16, 16, 16],
        steps: 4,
        procs: None,
        tier_compare: false,
    },
    CaseSpec {
        name: "s2d9pt_box_dist_2x2",
        bench: BenchmarkId::S2d9ptBox,
        grid: &[64, 64],
        quick_grid: &[32, 32],
        steps: 8,
        procs: Some(&[2, 2]),
        tier_compare: false,
    },
    CaseSpec {
        name: "s3d7pt_star_dist_2x2x1",
        bench: BenchmarkId::S3d7ptStar,
        grid: &[32, 32, 32],
        quick_grid: &[16, 16, 16],
        steps: 4,
        procs: Some(&[2, 2, 1]),
        tier_compare: false,
    },
    CaseSpec {
        // Quick mode keeps a 32-point axis: the VM amortizes its chunk
        // dispatch over whole rows, so rows must be long enough for the
        // smoke-mode speedup gate to measure compute rather than
        // dispatch overhead.
        name: "s3d7pt_interp_vs_vm",
        bench: BenchmarkId::S3d7ptStar,
        grid: &[48, 48, 48],
        quick_grid: &[32, 32, 32],
        steps: 8,
        procs: None,
        tier_compare: true,
    },
];

fn sub_plan(sub: &[usize]) -> Result<ExecPlan> {
    let mut s = Schedule::default();
    let tile: Vec<usize> = sub.iter().map(|&x| (x / 2).max(1)).collect();
    s.tile(&tile);
    s.parallel("xo", 2);
    ExecPlan::lower(&s, sub.len(), sub)
}

/// One tile covering the whole interior, one thread: every step is a
/// straight sweep of full-width rows through the chosen tier, so the
/// tier walls compare per-row compute and nothing else.
fn whole_grid_plan(sub: &[usize]) -> Result<ExecPlan> {
    let mut s = Schedule::default();
    s.tile(sub);
    s.parallel("xo", 1);
    ExecPlan::lower(&s, sub.len(), sub)
}

fn metric(name: &str, kind: &str, value: f64) -> Json {
    Json::obj(vec![
        ("name", Json::s(name)),
        ("kind", Json::s(kind)),
        ("value", Json::n(value)),
    ])
}

fn run_case(spec: &CaseSpec, quick: bool) -> Result<Json> {
    let grid = if quick { spec.quick_grid } else { spec.grid };
    let p = benchmark(spec.bench).program(grid, DType::F64, spec.steps)?;
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 42);
    let mut metrics = Vec::new();
    let wall_ns;
    if spec.tier_compare {
        // A/B/C the execution tiers on the identical program and plan.
        // The tiers are bit-identical by construction (ISSUE 6), and the
        // recording refuses to exist unless that holds right here too —
        // a speedup over a wrong answer is not a speedup.
        let exec = Executor::Tiled(whole_grid_plan(grid)?);
        let time_tier = |tier: ExecTier| -> Result<(Grid<f64>, f64, u64)> {
            let t0 = Instant::now();
            let (out, stats) = run_program_tier(&p, &exec, &init, Boundary::Dirichlet, tier)?;
            let ns = t0.elapsed().as_nanos() as f64;
            Ok((out, ns, stats.vm_dispatches()))
        };
        let (interp_out, interp_ns, _) = time_tier(ExecTier::Interp)?;
        let (vm_out, vm_ns, vm_dispatches) = time_tier(ExecTier::Vm)?;
        let (spec_out, spec_ns, _) = time_tier(ExecTier::Specialized)?;
        if vm_out.as_slice() != interp_out.as_slice()
            || spec_out.as_slice() != interp_out.as_slice()
        {
            return Err(MscError::InvalidConfig(format!(
                "{}: execution tiers are not bit-identical",
                spec.name
            )));
        }
        wall_ns = vm_ns;
        metrics.push(metric("interp_wall_ns", "time", interp_ns));
        metrics.push(metric("wall_ns", "time", vm_ns));
        metrics.push(metric("specialized_wall_ns", "time", spec_ns));
        metrics.push(metric("vm_speedup", "time", interp_ns / vm_ns));
        metrics.push(metric("specialized_speedup", "time", interp_ns / spec_ns));
        // Row-chunk dispatch count is a pure function of grid shape and
        // steps — exact, so any change is a lowering regression.
        metrics.push(metric("vm_dispatches", "count", vm_dispatches as f64));
        metrics.push(metric("steps", "count", spec.steps as f64));
    } else {
        match spec.procs {
            None => {
                let plan = sub_plan(grid)?;
                let t0 = Instant::now();
                let (_, stats) = run_program(&p, &Executor::Tiled(plan), &init)?;
                wall_ns = t0.elapsed().as_nanos() as f64;
                metrics.push(metric("wall_ns", "time", wall_ns));
                metrics.push(metric(
                    "computed_points",
                    "count",
                    stats.computed_points() as f64,
                ));
                metrics.push(metric(
                    "tiles_executed",
                    "count",
                    stats.tiles_executed as f64,
                ));
                metrics.push(metric("steps", "count", stats.steps as f64));
            }
            Some(procs) => {
                let t0 = Instant::now();
                let (_, stats) = run_distributed_resilient(
                    &p,
                    procs,
                    &init,
                    Boundary::Dirichlet,
                    &RunOptions::default(),
                    sub_plan,
                )?;
                wall_ns = t0.elapsed().as_nanos() as f64;
                metrics.push(metric("wall_ns", "time", wall_ns));
                metrics.push(metric("halo_messages", "count", stats.messages as f64));
                metrics.push(metric("retransmits", "count", stats.retransmits() as f64));
                metrics.push(metric("steps", "count", stats.steps as f64));
                let wait = stats.hists.get(Hist::HaloWaitNanos);
                if !wait.is_empty() {
                    metrics.push(metric("halo_wait_p90_ns", "time", wait.p90() as f64));
                }
            }
        }
    }
    let points_per_step: usize = grid.iter().product();
    let total_points = (points_per_step * spec.steps) as f64;
    metrics.push(metric(
        "mpoints_per_s",
        "time",
        total_points / (wall_ns / 1e9) / 1e6,
    ));
    Ok(Json::obj(vec![
        ("name", Json::s(spec.name)),
        (
            "grid",
            Json::Arr(grid.iter().map(|&g| Json::n(g as f64)).collect()),
        ),
        ("steps", Json::n(spec.steps as f64)),
        (
            "procs",
            match spec.procs {
                None => Json::Null,
                Some(p) => Json::Arr(p.iter().map(|&g| Json::n(g as f64)).collect()),
            },
        ),
        ("metrics", Json::Arr(metrics)),
    ]))
}

/// Run the whole suite and return the trajectory document. `quick`
/// shrinks the grids for CI smoke runs (same cases, same metric names —
/// quick and full recordings still schema-validate identically, but
/// should only be count-diffed against each other).
pub fn run_suite(quick: bool) -> Result<Json> {
    let cases = SUITE
        .iter()
        .map(|spec| run_case(spec, quick))
        .collect::<Result<Vec<_>>>()?;
    Ok(Json::obj(vec![
        ("schema_version", Json::n(SCHEMA_VERSION as f64)),
        ("suite", Json::s("msc-bench-trajectory")),
        ("mode", Json::s(if quick { "quick" } else { "full" })),
        ("cases", Json::Arr(cases)),
    ]))
}

/// What the recovery smoke run observed (`mscc bench --doctor`).
pub struct RecoverySmoke {
    pub recoveries: usize,
    pub restarts: usize,
    pub buddy_bytes: u64,
    pub detect_p50_ns: u64,
    pub detect_p99_ns: u64,
}

/// Kill one rank of a 2x2 world mid-run and heal it online with a hot
/// spare, then check the recovered grid against the fault-free serial
/// reference bit for bit. `mscc bench --doctor` runs this as a self-test
/// of the recovery machinery alongside the regression-gate self-test,
/// surfacing the recovery counters and the detection-latency histogram.
pub fn recovery_smoke() -> Result<RecoverySmoke> {
    use msc_comm::{FaultPlan, HeartbeatConfig};
    let p = benchmark(BenchmarkId::S2d9ptBox).program(&[32, 32], DType::F64, 6)?;
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 42);
    let (reference, _) = run_program(&p, &Executor::Reference, &init)?;
    let opts = RunOptions {
        chaos: Some(std::sync::Arc::new(FaultPlan::new(5).with_kill(1, 4))),
        checkpoint_every: 2, // diskless: buddy snapshots only
        spare_ranks: 1,
        heartbeat: Some(HeartbeatConfig::from_millis(5).map_err(MscError::InvalidConfig)?),
        ..RunOptions::default()
    };
    let (out, stats) =
        run_distributed_resilient(&p, &[2, 2], &init, Boundary::Dirichlet, &opts, sub_plan)?;
    if out.as_slice() != reference.as_slice() {
        return Err(MscError::InvalidConfig(
            "recovery smoke: healed grid is not bit-identical to the fault-free run".into(),
        ));
    }
    let d = stats.hists.get(Hist::DetectLatencyNanos);
    Ok(RecoverySmoke {
        recoveries: stats.recoveries,
        restarts: stats.restarts,
        buddy_bytes: stats.buddy_bytes(),
        detect_p50_ns: d.p50(),
        detect_p99_ns: d.p99(),
    })
}

/// What the sampler-overhead self-test measured (`mscc bench --doctor`).
pub struct SamplerOverhead {
    /// Median wall for the bare traced run across the rounds.
    pub base_ns: u64,
    /// Median wall for the run observed by a 100 ms sampler.
    pub sampled_ns: u64,
    /// Samples the sampler emitted during one observed run.
    pub samples: u64,
    /// Median of the per-round paired differences `(sampled - bare) /
    /// bare`, clamped at 0 for faster-than-base.
    pub overhead_frac: f64,
    /// Whether the gate passes (see [`SAMPLER_OVERHEAD_BUDGET`]).
    pub within_budget: bool,
}

/// Observing a run may cost at most this fraction of its wall-clock.
/// This is a claim about optimized builds; debug builds pay unoptimized
/// tick costs (snapshot + render + I/O, all ~50x slower) that the wider
/// debug slack below absorbs, keeping the gate wired but honest there.
pub const SAMPLER_OVERHEAD_BUDGET: f64 = 0.02;
/// Absolute slack: differences under this are scheduler noise on a
/// sub-second micro-run, not sampler cost, regardless of the fraction.
const SAMPLER_OVERHEAD_SLACK_NS: u64 = if cfg!(debug_assertions) {
    100_000_000
} else {
    5_000_000
};
/// Interleaved bare/sampled rounds; the gate statistic is the median of
/// the per-round paired differences.
const SAMPLER_OVERHEAD_ROUNDS: usize = 5;

/// Measure what the metrics sampler costs a run it observes: the same
/// small stencil under tracing, bare vs sampled at 100 ms. Both arms
/// trace into their own [`TelemetryHub`]s so the only difference is the
/// sampler thread itself.
///
/// The gate statistic is the **median of paired per-round differences**
/// (each round runs bare then sampled back to back): run-to-run wall
/// noise on small or busy machines is easily several percent — more
/// than the budget itself — but it drifts both arms together, so pairing
/// cancels it while a real, systematic sampler cost survives the median.
///
/// [`TelemetryHub`]: msc_trace::TelemetryHub
pub fn sampler_overhead() -> Result<SamplerOverhead> {
    // Large enough that one run spans a few sampling intervals (~100s of
    // ms): a percentage gate over a single-digit-ms run would measure
    // the sampler's fixed start/stop cost, not its steady-state drag.
    // Debug builds run the stencil ~50x slower, so they reach the same
    // multi-interval wall with a much smaller workload.
    let (grid, steps) = if cfg!(debug_assertions) {
        ([32usize, 32, 32], 100)
    } else {
        ([48usize, 48, 48], 400)
    };
    let p = benchmark(BenchmarkId::S3d7ptStar).program(&grid, DType::F64, steps)?;
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 42);
    let exec = Executor::Tiled(sub_plan(&grid)?);

    let run_once = |sampled: bool, tag: &str| -> Result<(u64, u64)> {
        let hub = msc_trace::TelemetryHub::new();
        hub.set_enabled(true);
        let _g = msc_trace::install_thread_hub(std::sync::Arc::clone(&hub));
        let sampler = if sampled {
            let dir = std::env::temp_dir()
                .join(format!("msc_doctor_sampler_{}_{tag}", std::process::id()));
            let cfg = msc_trace::SamplerConfig::from_millis(100, dir.join("metrics.jsonl"))
                .map_err(MscError::InvalidConfig)?;
            Some(
                msc_trace::Sampler::start(std::sync::Arc::clone(&hub), cfg)
                    .map_err(|e| MscError::InvalidConfig(format!("sampler: {e}")))?,
            )
        } else {
            None
        };
        let t0 = Instant::now();
        run_program(&p, &exec, &init)?;
        let wall = t0.elapsed().as_nanos() as u64;
        let samples = match sampler {
            Some(s) => {
                let sum = s.stop();
                if let Some(dir) = sum.jsonl_path.parent() {
                    let _ = std::fs::remove_dir_all(dir);
                }
                sum.samples
            }
            None => 0,
        };
        Ok((wall, samples))
    };

    let median = |v: &mut Vec<u64>| -> u64 {
        v.sort_unstable();
        v[v.len() / 2]
    };
    let mut bares = Vec::new();
    let mut sampleds = Vec::new();
    let mut diffs: Vec<i64> = Vec::new();
    let mut samples = 0u64;
    for i in 0..SAMPLER_OVERHEAD_ROUNDS {
        let (b, _) = run_once(false, &format!("base{i}"))?;
        let (s, n) = run_once(true, &format!("on{i}"))?;
        bares.push(b);
        sampleds.push(s);
        diffs.push(s as i64 - b as i64);
        samples = samples.max(n);
    }
    let base_ns = median(&mut bares);
    let sampled_ns = median(&mut sampleds);
    diffs.sort_unstable();
    let extra = diffs[diffs.len() / 2].max(0) as u64;
    let overhead_frac = if base_ns > 0 {
        extra as f64 / base_ns as f64
    } else {
        0.0
    };
    Ok(SamplerOverhead {
        base_ns,
        sampled_ns,
        samples,
        overhead_frac,
        within_budget: overhead_frac < SAMPLER_OVERHEAD_BUDGET || extra < SAMPLER_OVERHEAD_SLACK_NS,
    })
}

fn require<'a>(doc: &'a Json, key: &str, ctx: &str) -> std::result::Result<&'a Json, String> {
    doc.get(key)
        .ok_or_else(|| format!("{ctx}: missing `{key}`"))
}

/// Schema-check a trajectory document: version, required fields, and
/// well-formed metric entries with a known kind.
pub fn validate(doc: &Json) -> std::result::Result<(), String> {
    let version = require(doc, "schema_version", "document")?
        .as_f64()
        .ok_or("schema_version must be a number")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!(
            "schema_version {version} != supported {SCHEMA_VERSION}"
        ));
    }
    require(doc, "suite", "document")?
        .as_str()
        .ok_or("suite must be a string")?;
    let cases = require(doc, "cases", "document")?
        .as_arr()
        .ok_or("cases must be an array")?;
    if cases.is_empty() {
        return Err("cases is empty".into());
    }
    for case in cases {
        let name = require(case, "name", "case")?
            .as_str()
            .ok_or("case name must be a string")?;
        let metrics = require(case, "metrics", name)?
            .as_arr()
            .ok_or_else(|| format!("{name}: metrics must be an array"))?;
        if metrics.is_empty() {
            return Err(format!("{name}: no metrics"));
        }
        for m in metrics {
            let mname = require(m, "name", name)?
                .as_str()
                .ok_or_else(|| format!("{name}: metric name must be a string"))?;
            let kind = require(m, "kind", mname)?
                .as_str()
                .ok_or_else(|| format!("{mname}: kind must be a string"))?;
            if kind != "time" && kind != "count" {
                return Err(format!("{mname}: unknown metric kind `{kind}`"));
            }
            let value = require(m, "value", mname)?
                .as_f64()
                .ok_or_else(|| format!("{mname}: value must be a number"))?;
            if !value.is_finite() {
                return Err(format!("{mname}: non-finite value"));
            }
        }
    }
    Ok(())
}

/// One regression found by [`diff`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    pub case: String,
    pub metric: String,
    pub old: f64,
    pub new: f64,
    pub detail: String,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}: {} -> {} ({})",
            self.case, self.metric, self.old, self.new, self.detail
        )
    }
}

fn metrics_of(case: &Json) -> Vec<(&str, &str, f64)> {
    case.get("metrics")
        .and_then(Json::as_arr)
        .map(|ms| {
            ms.iter()
                .filter_map(|m| {
                    Some((
                        m.get("name")?.as_str()?,
                        m.get("kind")?.as_str()?,
                        m.get("value")?.as_f64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Compare two validated recordings. Count metrics must match exactly;
/// time metrics regress when `new > old * (1 + threshold)` (pass
/// `counts_only` to skip them on noisy machines). A case or metric
/// present in `old` but missing from `new` is itself a regression —
/// the trajectory must never silently lose coverage.
pub fn diff(
    old: &Json,
    new: &Json,
    threshold: f64,
    counts_only: bool,
) -> std::result::Result<Vec<Regression>, String> {
    validate(old)?;
    validate(new)?;
    let mut regressions = Vec::new();
    let old_cases = old.get("cases").and_then(Json::as_arr).unwrap_or(&[]);
    let new_cases = new.get("cases").and_then(Json::as_arr).unwrap_or(&[]);
    for oc in old_cases {
        let name = oc.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(nc) = new_cases
            .iter()
            .find(|c| c.get("name").and_then(Json::as_str) == Some(name))
        else {
            regressions.push(Regression {
                case: name.into(),
                metric: "<case>".into(),
                old: 0.0,
                new: 0.0,
                detail: "case missing from new recording".into(),
            });
            continue;
        };
        let new_metrics = metrics_of(nc);
        for (mname, kind, old_v) in metrics_of(oc) {
            let Some(&(_, _, new_v)) = new_metrics.iter().find(|(n, _, _)| *n == mname) else {
                regressions.push(Regression {
                    case: name.into(),
                    metric: mname.into(),
                    old: old_v,
                    new: 0.0,
                    detail: "metric missing from new recording".into(),
                });
                continue;
            };
            match kind {
                "count" => {
                    if new_v != old_v {
                        regressions.push(Regression {
                            case: name.into(),
                            metric: mname.into(),
                            old: old_v,
                            new: new_v,
                            detail: "count metric changed".into(),
                        });
                    }
                }
                _ if counts_only => {}
                // Bigger-is-better time metrics (throughput, speedup
                // ratios) regress downward; raw latencies regress upward.
                _ if mname.contains("per_s") || mname.contains("speedup") => {
                    if new_v < old_v * (1.0 - threshold) {
                        regressions.push(Regression {
                            case: name.into(),
                            metric: mname.into(),
                            old: old_v,
                            new: new_v,
                            detail: format!(
                                "throughput dropped {:.0}% (> {:.0}% threshold)",
                                (1.0 - new_v / old_v) * 100.0,
                                threshold * 100.0
                            ),
                        });
                    }
                }
                _ => {
                    if new_v > old_v * (1.0 + threshold) {
                        regressions.push(Regression {
                            case: name.into(),
                            metric: mname.into(),
                            old: old_v,
                            new: new_v,
                            detail: format!(
                                "slowed {:.0}% (> {:.0}% threshold)",
                                (new_v / old_v - 1.0) * 100.0,
                                threshold * 100.0
                            ),
                        });
                    }
                }
            }
        }
    }
    Ok(regressions)
}

/// Return a copy of `doc` with every time metric slowed by `factor`
/// (latencies multiplied, throughputs divided). Used by
/// `mscc bench --doctor` to prove the [`diff`] gate fires.
pub fn scale_times(doc: &Json, factor: f64) -> Json {
    fn rewrite(j: &Json, factor: f64) -> Json {
        match j {
            Json::Arr(items) => Json::Arr(items.iter().map(|i| rewrite(i, factor)).collect()),
            Json::Obj(fields) => {
                let is_time_metric = j.get("kind").and_then(Json::as_str) == Some("time");
                let name = j.get("name").and_then(Json::as_str).unwrap_or("");
                Json::Obj(
                    fields
                        .iter()
                        .map(|(k, v)| {
                            if is_time_metric && k == "value" {
                                let v0 = v.as_f64().unwrap_or(0.0);
                                let scaled = if name.contains("per_s") || name.contains("speedup") {
                                    v0 / factor
                                } else {
                                    v0 * factor
                                };
                                (k.clone(), Json::n(scaled))
                            } else {
                                (k.clone(), rewrite(v, factor))
                            }
                        })
                        .collect(),
                )
            }
            other => other.clone(),
        }
    }
    rewrite(doc, factor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_runs_and_validates() {
        let doc = run_suite(true).unwrap();
        validate(&doc).unwrap();
        let text = doc.to_string();
        let back = Json::parse(&text).unwrap();
        validate(&back).unwrap();
        assert_eq!(
            back.get("cases").and_then(Json::as_arr).map(|c| c.len()),
            Some(5)
        );
        // The tier-compare case must carry its speedup metrics.
        let cases = back.get("cases").and_then(Json::as_arr).unwrap();
        let tier_case = cases
            .iter()
            .find(|c| c.get("name").and_then(Json::as_str) == Some("s3d7pt_interp_vs_vm"))
            .expect("s3d7pt_interp_vs_vm case present");
        for want in ["vm_speedup", "specialized_speedup", "vm_dispatches"] {
            assert!(
                metrics_of(tier_case).iter().any(|(n, _, _)| *n == want),
                "missing {want}"
            );
        }
    }

    #[test]
    fn self_diff_is_clean_and_doctored_diff_fires() {
        let doc = run_suite(true).unwrap();
        assert!(diff(&doc, &doc, DEFAULT_THRESHOLD, false)
            .unwrap()
            .is_empty());
        let slowed = scale_times(&doc, 1.2);
        let regs = diff(&doc, &slowed, DEFAULT_THRESHOLD, false).unwrap();
        assert!(!regs.is_empty(), "20% slowdown must trip a 15% gate");
        assert!(regs.iter().all(|r| r.detail.contains("%")), "{regs:?}");
        // Counts are untouched by the doctoring, so counts-only stays clean.
        assert!(diff(&doc, &slowed, DEFAULT_THRESHOLD, true)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn count_changes_always_flag() {
        let doc = run_suite(true).unwrap();
        // Hand-edit one count metric.
        let text = doc.to_string();
        let mut edited = Json::parse(&text).unwrap();
        if let Json::Obj(fields) = &mut edited {
            for (k, v) in fields.iter_mut() {
                if k != "cases" {
                    continue;
                }
                if let Json::Arr(cases) = v {
                    if let Json::Obj(cf) = &mut cases[0] {
                        for (ck, cv) in cf.iter_mut() {
                            if ck != "metrics" {
                                continue;
                            }
                            if let Json::Arr(ms) = cv {
                                for m in ms.iter_mut() {
                                    if m.get("kind").and_then(Json::as_str) == Some("count") {
                                        if let Json::Obj(mf) = m {
                                            for (mk, mv) in mf.iter_mut() {
                                                if mk == "value" {
                                                    *mv = Json::n(mv.as_f64().unwrap() + 1.0);
                                                }
                                            }
                                        }
                                        break;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        let regs = diff(&doc, &edited, DEFAULT_THRESHOLD, true).unwrap();
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].detail.contains("count"), "{regs:?}");
    }

    #[test]
    fn missing_case_is_a_regression() {
        let doc = run_suite(true).unwrap();
        let mut pruned = doc.clone();
        if let Json::Obj(fields) = &mut pruned {
            for (k, v) in fields.iter_mut() {
                if k == "cases" {
                    if let Json::Arr(cases) = v {
                        cases.pop();
                    }
                }
            }
        }
        let regs = diff(&doc, &pruned, DEFAULT_THRESHOLD, true).unwrap();
        assert!(regs.iter().any(|r| r.detail.contains("case missing")));
    }

    #[test]
    fn validator_rejects_bad_documents() {
        for (bad, why) in [
            ("{}", "missing version"),
            (
                "{\"schema_version\": 4, \"suite\": \"x\", \"cases\": []}",
                "old version",
            ),
            (
                "{\"schema_version\": 6, \"suite\": \"x\", \"cases\": []}",
                "no cases",
            ),
            (
                "{\"schema_version\": 6, \"suite\": \"x\", \"cases\": [{\"name\": \"c\", \
                 \"metrics\": [{\"name\": \"m\", \"kind\": \"weird\", \"value\": 1}]}]}",
                "bad kind",
            ),
        ] {
            let doc = Json::parse(bad).unwrap();
            assert!(validate(&doc).is_err(), "{why}");
        }
    }
}
