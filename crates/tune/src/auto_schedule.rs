//! Automatic schedule selection: composes the single-node tile sweep
//! with the streaming (`stream()`) and temporal-tiling (`tile_time`)
//! extensions, returning the best predicted schedule for a stencil on a
//! machine — the auto-tuning capability Table 1 credits MSC with,
//! extended to the full primitive set of this implementation.

use crate::single_node::sweep_tiles;
use msc_core::analysis::StencilStats;
use msc_core::error::Result;
use msc_core::schedule::{ExecPlan, Schedule, Target};
use msc_core::schedule::plan::{spm_buffer_elems, spm_staging_bytes};
use msc_machine::model::{MachineModel, Precision};
use msc_sim::{simulate_step, StepInputs};

/// The chosen schedule and its predicted step time, with the decisions
/// taken along the way (for explainability in `mscc --autoschedule`).
#[derive(Debug, Clone)]
pub struct AutoSchedule {
    pub schedule: Schedule,
    pub predicted_s: f64,
    /// Human-readable decision log.
    pub decisions: Vec<String>,
}

fn predict(
    sched: &Schedule,
    grid: &[usize],
    stats: &StencilStats,
    reach: &[usize],
    machine: &MachineModel,
    prec: Precision,
) -> Result<f64> {
    let plan = ExecPlan::lower(sched, grid.len(), grid)?;
    Ok(simulate_step(
        &StepInputs {
            stats: *stats,
            reach: reach.to_vec(),
            plan: &plan,
            prec,
        },
        machine,
    )
    .time_s)
}

/// Does the SPM hold the staged buffers of `sched` (read+write, doubled
/// under streaming, halo extended under temporal tiling)?
fn spm_fits(
    machine: &MachineModel,
    sched: &Schedule,
    reach: &[usize],
    elem: usize,
) -> bool {
    let Some(spm) = machine.spm_bytes() else {
        return true;
    };
    if sched.tile_factors.is_empty() {
        return false;
    }
    let tt = sched.time_tile.max(1);
    let tile = &sched.tile_factors;
    let reach: Vec<usize> = reach.iter().map(|&r| r * tt).collect();
    let mut total = spm_staging_bytes(tile, &reach, elem, sched.double_buffer);
    if tt > 1 {
        // Temporal tiling ping-pongs a second extended read buffer.
        let (read, _) = spm_buffer_elems(tile, &reach);
        total += read * elem * if sched.double_buffer { 2 } else { 1 };
    }
    total <= spm
}

/// Select the best schedule for a stencil on a machine.
#[allow(clippy::too_many_arguments)]
pub fn auto_schedule(
    grid: &[usize],
    stats: &StencilStats,
    reach: &[usize],
    points: usize,
    machine: &MachineModel,
    target: Target,
    prec: Precision,
) -> Result<AutoSchedule> {
    let mut decisions = Vec::new();

    // Phase 1: spatial tile sweep.
    let swept = sweep_tiles(grid, stats, reach, points, machine, target, prec)?;
    let mut best = swept.best_schedule.clone();
    let mut best_t = swept.best_time_s;
    decisions.push(format!(
        "tile sweep: {:?} at {:.3} ms (preset {:.3} ms)",
        best.tile_factors,
        best_t * 1e3,
        swept.preset_time_s * 1e3
    ));

    // Phase 2: streaming (SPM targets only). The best streamed tile may
    // differ from the best serial tile — streaming halves the usable SPM
    // — so re-scan the sweep candidates with stream() enabled.
    if best.uses_spm() {
        let mut best_streamed: Option<(Schedule, f64)> = None;
        for (tile, _) in &swept.sweep {
            let mut streamed = best.clone();
            streamed.tile(tile);
            streamed.stream();
            if !spm_fits(machine, &streamed, reach, prec.bytes()) {
                continue;
            }
            let t = predict(&streamed, grid, stats, reach, machine, prec)?;
            if best_streamed.as_ref().map(|(_, bt)| t < *bt).unwrap_or(true) {
                best_streamed = Some((streamed, t));
            }
        }
        match best_streamed {
            Some((streamed, t)) if t < best_t => {
                decisions.push(format!(
                    "stream() with tile {:?}: {:.3} ms -> {:.3} ms, enabled",
                    streamed.tile_factors,
                    best_t * 1e3,
                    t * 1e3
                ));
                best = streamed;
                best_t = t;
            }
            Some(_) => decisions.push("stream(): no gain, skipped".into()),
            None => decisions.push("stream(): no candidate fits SPM, skipped".into()),
        }
    }

    // Phase 3: temporal tiling (single-dependency stencils only — the
    // executor restriction).
    if stats.time_deps == 1 {
        for tt in [2usize, 3, 4] {
            let mut temporal = best.clone();
            temporal.tile_time(tt);
            if !spm_fits(machine, &temporal, reach, prec.bytes()) {
                continue;
            }
            let t = predict(&temporal, grid, stats, reach, machine, prec)?;
            if t < best_t {
                decisions.push(format!(
                    "tile_time({tt}): {:.3} ms -> {:.3} ms, enabled",
                    best_t * 1e3,
                    t * 1e3
                ));
                best = temporal;
                best_t = t;
            }
        }
    } else {
        decisions.push("tile_time: multi-dependency stencil, skipped".into());
    }

    Ok(AutoSchedule {
        schedule: best,
        predicted_s: best_t,
        decisions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_core::catalog::{benchmark, BenchmarkId};
    use msc_core::prelude::*;
    use msc_core::schedule::preset_for_grid;
    use msc_machine::presets::{matrix_processor, sunway_cg};

    fn stats_for(id: BenchmarkId, deps: usize) -> (Vec<usize>, StencilStats, Vec<usize>, usize) {
        let b = benchmark(id);
        let grid = b.default_grid();
        let p = if deps == 1 {
            let mut builder = StencilProgram::builder(b.name)
                .kernel(b.kernel())
                .combine(&[(1, 1.0, b.name)])
                .timesteps(2);
            builder = match b.ndim {
                2 => builder.grid_2d("B", DType::F64, [grid[0], grid[1]], b.radius, 2),
                _ => builder.grid_3d(
                    "B",
                    DType::F64,
                    [grid[0], grid[1], grid[2]],
                    b.radius,
                    2,
                ),
            };
            builder.build().unwrap()
        } else {
            b.program(&grid, DType::F64, 2).unwrap()
        };
        (
            grid,
            StencilStats::of(&p.stencil, DType::F64).unwrap(),
            p.stencil.reach(),
            b.points(),
        )
    }

    #[test]
    fn auto_never_loses_to_preset() {
        for id in [
            BenchmarkId::S3d7ptStar,
            BenchmarkId::S2d121ptBox,
            BenchmarkId::S3d31ptStar,
        ] {
            let (grid, stats, reach, points) = stats_for(id, 2);
            let m = sunway_cg();
            let auto =
                auto_schedule(&grid, &stats, &reach, points, &m, Target::SunwayCG, Precision::Fp64)
                    .unwrap();
            let preset = preset_for_grid(grid.len(), points, Target::SunwayCG, &grid);
            let preset_t =
                predict(&preset, &grid, &stats, &reach, &m, Precision::Fp64).unwrap();
            assert!(
                auto.predicted_s <= preset_t * 1.0001,
                "{id:?}: auto {} vs preset {preset_t}",
                auto.predicted_s
            );
        }
    }

    #[test]
    fn streaming_gets_enabled_where_compute_and_dma_balance() {
        // High-order 2D on Sunway balances DMA and compute — streaming
        // should win and be selected.
        let (grid, stats, reach, points) = stats_for(BenchmarkId::S2d121ptBox, 2);
        let m = sunway_cg();
        let auto =
            auto_schedule(&grid, &stats, &reach, points, &m, Target::SunwayCG, Precision::Fp64)
                .unwrap();
        assert!(auto.schedule.double_buffer, "{:?}", auto.decisions);
    }

    #[test]
    fn temporal_tiling_considered_only_for_single_dep() {
        let (grid, stats, reach, points) = stats_for(BenchmarkId::S3d7ptStar, 2);
        let m = sunway_cg();
        let auto =
            auto_schedule(&grid, &stats, &reach, points, &m, Target::SunwayCG, Precision::Fp64)
                .unwrap();
        assert_eq!(auto.schedule.time_tile, 1);
        assert!(auto
            .decisions
            .iter()
            .any(|d| d.contains("multi-dependency")));

        let (grid, stats, reach, points) = stats_for(BenchmarkId::S3d7ptStar, 1);
        let auto1 =
            auto_schedule(&grid, &stats, &reach, points, &m, Target::SunwayCG, Precision::Fp64)
                .unwrap();
        // Single-dep may or may not enable it, but it must be evaluated
        // (no skip message) and the result must be feasible.
        assert!(!auto1
            .decisions
            .iter()
            .any(|d| d.contains("multi-dependency")));
        assert!(spm_fits(&m, &auto1.schedule, &reach, 8));
    }

    #[test]
    fn cache_targets_skip_spm_decisions() {
        let (grid, stats, reach, points) = stats_for(BenchmarkId::S2d9ptStar, 2);
        let m = matrix_processor();
        let auto =
            auto_schedule(&grid, &stats, &reach, points, &m, Target::Matrix, Precision::Fp64)
                .unwrap();
        assert!(!auto.schedule.uses_spm());
        assert!(!auto.schedule.double_buffer);
    }
}
