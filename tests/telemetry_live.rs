//! Live telemetry end to end, in process (DESIGN.md §14): a 2-rank
//! chaos-kill run observed by the metrics sampler must leave behind
//! (a) a well-formed, schema-tagged, seq- and counter-monotone JSONL
//! stream whose tail records the kill-triggered `comm_fault` alert,
//! (b) an OpenMetrics sibling that passes the strict validator, and
//! (c) per-rank rows showing both ranks stepping — while the run itself
//! still heals and verifies bit-identical against the serial reference.
//! The second test holds the sampler to its overhead budget (optimised
//! builds only).

use msc::trace::Json;
use msc::comm::{run_distributed_resilient, FaultPlan, RunOptions};
use msc::prelude::*;
use msc::trace::{openmetrics, Sampler, SamplerConfig, TelemetryHub};
use std::sync::Arc;

fn program() -> StencilProgram {
    StencilProgram::builder("live")
        .grid_3d("B", DType::F64, [24, 16, 16], 1, 2)
        .kernel(Kernel::star_normalized("S", 3, 1))
        .timesteps(8)
        .build()
        .unwrap()
}

fn sub_plan(sub: &[usize]) -> msc::core::error::Result<msc::core::schedule::ExecPlan> {
    let mut s = msc::core::schedule::Schedule::default();
    let tile: Vec<usize> = sub.iter().map(|&x| (x / 2).max(1)).collect();
    s.tile(&tile);
    s.parallel("xo", 2);
    msc::core::schedule::ExecPlan::lower(&s, sub.len(), sub)
}

#[test]
fn chaos_kill_run_emits_valid_metrics_and_alert() {
    let dir = std::env::temp_dir().join(format!("msc_telemetry_live_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let jsonl_path = dir.join("metrics.jsonl");

    let hub = TelemetryHub::new();
    hub.set_enabled(true);
    let cfg = SamplerConfig::from_millis(25, &jsonl_path).unwrap();
    let om_path = cfg.openmetrics_path.clone();
    let sampler = Sampler::start(Arc::clone(&hub), cfg).unwrap();

    let p = program();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 42);
    let (reference, _) = run_program(&p, &Executor::Reference, &init).unwrap();

    // Rank 1 is killed at its 3rd exchange; the run restarts from the
    // step-2 checkpoint. The restart path forces a metrics flush, so the
    // stream must carry a comm_fault alert even if the run was shorter
    // than one sampling interval.
    let opts = RunOptions {
        chaos: Some(Arc::new(FaultPlan::new(1).with_kill(1, 3))),
        checkpoint_dir: Some(dir.join("ckpt")),
        checkpoint_every: 2,
        hub: Some(Arc::clone(&hub)),
        ..RunOptions::default()
    };
    let (out, stats) =
        run_distributed_resilient(&p, &[2, 1, 1], &init, Boundary::Dirichlet, &opts, sub_plan)
            .unwrap();
    assert_eq!(
        out.as_slice(),
        reference.as_slice(),
        "healed run must stay bit-identical"
    );
    assert!(stats.restarts > 0, "the kill must actually have fired");

    let summary = sampler.stop();
    assert!(summary.io_error.is_none(), "{:?}", summary.io_error);
    assert!(summary.samples >= 2, "start + final flush at minimum");
    assert!(summary.alerts >= 1, "kill must raise at least one alert");

    // --- JSONL stream: parseable, schema-tagged, monotone. ---
    let body = std::fs::read_to_string(&jsonl_path).unwrap();
    let docs: Vec<Json> = body
        .lines()
        .map(|l| Json::parse(l).expect("every line parses"))
        .collect();
    assert_eq!(docs.len() as u64, summary.samples);
    let mut saw_fault_alert = false;
    let mut prev_counters: Option<Vec<(String, f64)>> = None;
    for (i, doc) in docs.iter().enumerate() {
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(msc::trace::sampler::METRICS_SCHEMA),
            "line {i} schema tag"
        );
        assert_eq!(
            doc.get("seq").and_then(Json::as_f64),
            Some(i as f64),
            "line {i} seq"
        );
        let Some(Json::Obj(counters)) = doc.get("counters") else {
            panic!("line {i}: counters object missing");
        };
        let cur: Vec<(String, f64)> = counters
            .iter()
            .map(|(k, v)| (k.clone(), v.as_f64().unwrap()))
            .collect();
        if let Some(prev) = &prev_counters {
            for ((name, was), (_, now)) in prev.iter().zip(&cur) {
                assert!(
                    now >= was,
                    "line {i}: counter {name} went backwards {was} -> {now}"
                );
            }
        }
        prev_counters = Some(cur);
        if let Some(alerts) = doc.get("alerts").and_then(Json::as_arr) {
            for a in alerts {
                if a.get("kind").and_then(Json::as_str) == Some("comm_fault") {
                    saw_fault_alert = true;
                }
            }
        }
    }
    assert!(
        saw_fault_alert,
        "no comm_fault alert in the stream:\n{body}"
    );

    // --- Final per-rank rows: both ranks finished all 8 steps. ---
    let last = docs.last().unwrap();
    let ranks = last.get("ranks").and_then(Json::as_arr).unwrap();
    assert_eq!(ranks.len(), 2, "expected 2 rank rows, got {ranks:?}");
    for r in ranks {
        assert_eq!(
            r.get("last_step").and_then(Json::as_f64),
            Some(7.0),
            "{r:?}"
        );
        assert!(
            r.get("steps").and_then(Json::as_f64).unwrap() >= 8.0,
            "{r:?}"
        );
    }

    // --- OpenMetrics sibling: strict-validates, totals match. ---
    let om = std::fs::read_to_string(&om_path).unwrap();
    let doc = openmetrics::validate(&om).expect("exposition validates");
    assert_eq!(doc.families["msc_steps"], "counter");
    // In a sessioned hub `steps` counts rank-steps: 2 ranks x 8 steps,
    // plus whatever was re-executed after the kill.
    assert!(doc.samples["msc_steps_total"] >= 16.0);
    assert!(doc.samples["msc_alerts_total"] >= 1.0);
    assert!(doc.samples.contains_key("msc_by_rank_steps{rank=\"0\"}"));
    assert!(doc.samples.contains_key("msc_by_rank_steps{rank=\"1\"}"));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Observing a run must stay near-free (DESIGN.md §14.2): the same
/// 48^3 x 400-step sweep under tracing, bare and then watched by a 100 ms
/// sampler, five rounds back to back. Both arms trace into hubs of their
/// own, so the sampler thread is the only difference. The statistic is the
/// smallest paired difference: what the sampler costs is in every round,
/// what the host was doing meanwhile is not, so the lower envelope keeps
/// the first and sheds the second (as BENCHMARK.json's lower decile
/// does). A claim about optimised builds, so debug builds skip it;
/// `scripts/verify.sh` and CI run it with `--release`.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn a_sampler_costs_its_run_under_two_percent() {
    use msc::core::catalog::{benchmark, BenchmarkId};
    use std::time::{Duration, Instant};
    const ROUNDS: usize = 5;
    const BUDGET: f64 = 0.02;
    // Under this a difference is scheduler noise on a ~100 ms run.
    const FLOOR: Duration = Duration::from_millis(5);

    // Long enough to span several sampling intervals: over a run of a
    // few ms the gate would read the sampler's start and stop, not its
    // drag.
    let grid = [48, 48, 48];
    let p = benchmark(BenchmarkId::S3d7ptStar)
        .program(&grid, DType::F64, 400)
        .unwrap();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 42);
    let exec = Executor::Tiled(sub_plan(&grid).unwrap());
    let dir = std::env::temp_dir().join(format!("msc_sampler_cost_{}", std::process::id()));

    let run_once = |sampled: bool| -> (Duration, u64) {
        let hub = TelemetryHub::new();
        hub.set_enabled(true);
        let _session = msc::trace::install_thread_hub(Arc::clone(&hub));
        let sampler = sampled.then(|| {
            let cfg = SamplerConfig::from_millis(100, dir.join("metrics.jsonl")).unwrap();
            Sampler::start(Arc::clone(&hub), cfg).unwrap()
        });
        let t0 = Instant::now();
        run_program(&p, &exec, &init).unwrap();
        let wall = t0.elapsed();
        (wall, sampler.map_or(0, |s| s.stop().samples))
    };

    let mut rounds = Vec::new();
    for _ in 0..ROUNDS {
        let (bare, _) = run_once(false);
        let (sampled, samples) = run_once(true);
        assert!(samples >= 2, "the sampler must have watched the run");
        rounds.push((bare, sampled));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let (bare, sampled) = rounds
        .iter()
        .min_by_key(|(bare, sampled)| sampled.saturating_sub(*bare))
        .unwrap();
    let extra = sampled.saturating_sub(*bare);
    assert!(
        extra < FLOOR || extra.as_secs_f64() < BUDGET * bare.as_secs_f64(),
        "the sampler cost {extra:?} of a {bare:?} run in its best of {ROUNDS} rounds \
         (budget {:.0} %, floor {FLOOR:?}): {rounds:?}",
        BUDGET * 100.0
    );
}
