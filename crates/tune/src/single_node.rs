//! Single-node schedule auto-tuning: exhaustive sweep over feasible tile
//! assignments for one benchmark on one machine (the single-processor
//! counterpart of the large-scale tuner — Table 1 lists auto-tuning as a
//! core MSC capability).

use msc_core::analysis::StencilStats;
use msc_core::error::{MscError, Result};
use msc_core::schedule::{preset_for_grid, ExecPlan, Schedule, Target};
use msc_core::schedule::plan::spm_staging_bytes;
use msc_machine::model::{MachineModel, Precision};
use msc_sim::{simulate_step, StepInputs};

/// Outcome of a single-node sweep.
#[derive(Debug, Clone)]
pub struct SingleNodeResult {
    pub best_schedule: Schedule,
    pub best_time_s: f64,
    /// Predicted time of the Table 5 preset, for comparison.
    pub preset_time_s: f64,
    /// Every candidate evaluated: (tile, predicted seconds).
    pub sweep: Vec<(Vec<usize>, f64)>,
}

impl SingleNodeResult {
    /// Improvement of the tuned schedule over the preset.
    pub fn speedup_over_preset(&self) -> f64 {
        self.preset_time_s / self.best_time_s
    }
}

fn pow2_up_to(n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..).map(|k| 1usize << k).take_while(|&t| t < n).collect();
    v.push(n);
    v
}

/// SPM feasibility: one read buffer (tile+halo) plus one write buffer
/// must fit the per-core scratchpad (doubled under streaming).
fn spm_ok(
    machine: &MachineModel,
    tile: &[usize],
    reach: &[usize],
    elem: usize,
    double_buffer: bool,
) -> bool {
    let Some(spm) = machine.spm_bytes() else {
        return true;
    };
    spm_staging_bytes(tile, reach, elem, double_buffer) <= spm
}

/// Sweep tile assignments for a stencil on `grid`, returning the best
/// feasible schedule by simulated step time.
#[allow(clippy::too_many_arguments)]
pub fn sweep_tiles(
    grid: &[usize],
    stats: &StencilStats,
    reach: &[usize],
    points: usize,
    machine: &MachineModel,
    target: Target,
    prec: Precision,
) -> Result<SingleNodeResult> {
    let ndim = grid.len();
    let preset = preset_for_grid(ndim, points, target, grid);
    let preset_plan = ExecPlan::lower(&preset, ndim, grid)?;
    let preset_time_s = simulate_step(
        &StepInputs {
            stats: *stats,
            reach: reach.to_vec(),
            plan: &preset_plan,
            prec,
        },
        machine,
    )
    .time_s;

    // Candidate grid: powers of two per dimension (bounded combinatorics:
    // the outermost dim is capped at 8 — larger outer tiles only hurt
    // round-robin balance).
    let mut cands: Vec<Vec<usize>> = vec![vec![]];
    for (d, &n) in grid.iter().enumerate() {
        let opts: Vec<usize> = if d == 0 {
            pow2_up_to(n.min(8))
        } else {
            pow2_up_to(n)
        };
        cands = cands
            .into_iter()
            .flat_map(|c| {
                opts.iter().map(move |&t| {
                    let mut cc = c.clone();
                    cc.push(t);
                    cc
                })
            })
            .collect();
    }

    // The preset itself is always a candidate (its outer tile may sit
    // outside the bounded sweep grid).
    cands.push(preset.tile_factors.clone());

    let mut best: Option<(Schedule, f64)> = None;
    let mut sweep = Vec::new();
    for tile in cands {
        if !spm_ok(machine, &tile, reach, prec.bytes(), preset.double_buffer) {
            continue;
        }
        let mut sched = preset.clone();
        sched.tile(&tile);
        let Ok(plan) = ExecPlan::lower(&sched, ndim, grid) else {
            continue;
        };
        let t = simulate_step(
            &StepInputs {
                stats: *stats,
                reach: reach.to_vec(),
                plan: &plan,
                prec,
            },
            machine,
        )
        .time_s;
        sweep.push((tile.clone(), t));
        if best.as_ref().map(|(_, bt)| t < *bt).unwrap_or(true) {
            best = Some((sched, t));
        }
    }
    let (best_schedule, best_time_s) =
        best.ok_or_else(|| MscError::InvalidConfig("no feasible tile candidates".into()))?;
    Ok(SingleNodeResult {
        best_schedule,
        best_time_s,
        preset_time_s,
        sweep,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_core::catalog::{all_benchmarks, benchmark, BenchmarkId};
    use msc_core::prelude::*;
    use msc_machine::presets::{matrix_processor, sunway_cg};

    fn result_for(id: BenchmarkId, target: Target) -> SingleNodeResult {
        let b = benchmark(id);
        let grid = b.default_grid();
        let p = b.program(&grid, DType::F64, 2).unwrap();
        let stats = StencilStats::of(&p.stencil, DType::F64).unwrap();
        let m = match target {
            Target::SunwayCG => sunway_cg(),
            _ => matrix_processor(),
        };
        sweep_tiles(
            &grid,
            &stats,
            &p.stencil.reach(),
            b.points(),
            &m,
            target,
            Precision::Fp64,
        )
        .unwrap()
    }

    #[test]
    fn tuned_is_at_least_as_good_as_preset_everywhere() {
        for b in all_benchmarks() {
            let r = result_for(b.id, Target::SunwayCG);
            assert!(
                r.best_time_s <= r.preset_time_s * 1.0001,
                "{}: tuned {} vs preset {}",
                b.name,
                r.best_time_s,
                r.preset_time_s
            );
        }
    }

    #[test]
    fn preset_is_near_optimal_for_3d7pt() {
        // Table 5's hand-picked tiles should be within ~2x of the sweep
        // optimum — they were tuned on real hardware for this class.
        let r = result_for(BenchmarkId::S3d7ptStar, Target::SunwayCG);
        assert!(r.speedup_over_preset() < 2.0, "{}", r.speedup_over_preset());
    }

    #[test]
    fn sweep_respects_spm_feasibility() {
        let r = result_for(BenchmarkId::S3d31ptStar, Target::SunwayCG);
        // Every surviving candidate must fit: tile+halo + tile <= 64 KB.
        for (tile, _) in &r.sweep {
            let read: usize = tile.iter().zip([5, 5, 5].iter()).map(|(&t, &h)| t + 2 * h).product();
            let write: usize = tile.iter().product();
            assert!((read + write) * 8 <= 64 * 1024, "{tile:?}");
        }
        assert!(!r.sweep.is_empty());
    }

    #[test]
    fn matrix_sweep_prefers_long_inner_tiles() {
        // On the cache target the row-window model rewards long rows.
        let r = result_for(BenchmarkId::S2d9ptStar, Target::Matrix);
        let ndim_last = r.best_schedule.tile_factors.last().copied().unwrap();
        assert!(ndim_last >= 512, "best inner tile {ndim_last}");
    }
}
