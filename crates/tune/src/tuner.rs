//! End-to-end auto-tuning (paper §5.4, Figure 11): sample configurations,
//! fit the regression performance model, anneal over tile sizes × MPI
//! grid shapes scoring with the model, and validate the winner with the
//! full simulator.

use crate::anneal::{anneal, AnnealOptions, TracePoint};
use crate::perf_model::{Config, PerfModel, Workload};
use msc_core::error::{MscError, Result};
use msc_core::halo::CartDecomp;
use msc_machine::model::MachineModel;
use msc_machine::NetworkModel;
use rand::rngs::StdRng;
use rand::Rng;

/// The tuning problem: workload + machines + search options.
pub struct TuneProblem<'a> {
    pub workload: Workload,
    pub machine: &'a MachineModel,
    pub network: &'a NetworkModel,
    pub options: AnnealOptions,
}

/// Outcome of one tuning run.
#[derive(Debug, Clone)]
pub struct TuneResult {
    pub best: Config,
    /// Simulator-validated step time of the best config.
    pub best_time_s: f64,
    /// Step time of the starting config.
    pub initial_time_s: f64,
    pub trace: Vec<TracePoint>,
}

impl TuneResult {
    /// Speedup over the starting configuration (the paper reports 3.28×).
    pub fn improvement(&self) -> f64 {
        self.initial_time_s / self.best_time_s
    }
}

/// Factorizations of `n` into `ndim` ordered factors.
pub fn factorizations(n: usize, ndim: usize) -> Vec<Vec<usize>> {
    fn rec(n: usize, ndim: usize, out: &mut Vec<Vec<usize>>, prefix: &mut Vec<usize>) {
        if ndim == 1 {
            prefix.push(n);
            out.push(prefix.clone());
            prefix.pop();
            return;
        }
        for f in 1..=n {
            if n.is_multiple_of(f) {
                prefix.push(f);
                rec(n / f, ndim - 1, out, prefix);
                prefix.pop();
            }
        }
    }
    let mut out = Vec::new();
    rec(n, ndim, &mut out, &mut Vec::new());
    out
}

/// Random-neighbour move: mutate one tile factor (double/halve) or jump
/// to an adjacent MPI factorization.
fn neighbor(cfg: &Config, rng: &mut StdRng, mpi_shapes: &[Vec<usize>]) -> Config {
    let mut next = cfg.clone();
    if rng.gen_bool(0.6) {
        let d = rng.gen_range(0..next.tile.len());
        if rng.gen_bool(0.5) {
            next.tile[d] = (next.tile[d] * 2).min(4096);
        } else {
            next.tile[d] = (next.tile[d] / 2).max(1);
        }
    } else {
        next.mpi_grid = mpi_shapes[rng.gen_range(0..mpi_shapes.len())].clone();
    }
    next
}

/// Run the full auto-tuning pipeline. `initial` is the deliberately poor
/// starting point (Figure 11 starts far from the optimum).
pub fn tune(problem: &TuneProblem, initial: Config) -> Result<TuneResult> {
    let w = &problem.workload;
    let machine = problem.machine;
    let network = problem.network;
    let ndim = w.global_grid.len();

    // Candidate MPI shapes: factorizations the runtime would accept.
    let mpi_shapes: Vec<Vec<usize>> = factorizations(w.n_procs, ndim)
        .into_iter()
        .filter(|shape| CartDecomp::new(&w.global_grid, shape, &w.reach).is_ok())
        .collect();
    if mpi_shapes.is_empty() {
        return Err(MscError::InvalidConfig(
            "no feasible MPI factorization".into(),
        ));
    }

    // Phase 1: sample and fit the regression model.
    let mut samples = Vec::new();
    for shape in mpi_shapes.iter().take(12) {
        for &tx in &[1usize, 2, 4, 8] {
            for &tz in &[16usize, 32, 64, 128] {
                samples.push(Config {
                    tile: {
                        let mut t = vec![tx; ndim];
                        t[ndim - 1] = tz;
                        t
                    },
                    mpi_grid: shape.clone(),
                });
            }
        }
    }
    let model = PerfModel::fit(w, &samples, machine, network)?;

    // Phase 2: anneal, scoring with the cheap model.
    let initial_time_s = w.measure(&initial, machine, network)?;
    let cost = |c: &Config| model.predict(w, c).ok();
    let (best_by_model, _, trace) = anneal(
        initial.clone(),
        cost,
        |c, rng| neighbor(c, rng, &mpi_shapes),
        &problem.options,
    );

    // Phase 3: validate with the full simulator; keep whichever of
    // {model winner, initial} truly measures faster.
    let best_time_s = w.measure(&best_by_model, machine, network)?;
    let (best, best_time_s) = if best_time_s <= initial_time_s {
        (best_by_model, best_time_s)
    } else {
        (initial, initial_time_s)
    };

    Ok(TuneResult {
        best,
        best_time_s,
        initial_time_s,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_core::analysis::StencilStats;
    use msc_core::catalog::{benchmark, BenchmarkId};
    use msc_core::prelude::*;
    use msc_machine::model::Precision;
    use msc_machine::presets::{sunway_cg, taihulight_network};

    fn fig11_problem<'a>(
        machine: &'a MachineModel,
        network: &'a NetworkModel,
        seed: u64,
    ) -> TuneProblem<'a> {
        let b = benchmark(BenchmarkId::S3d7ptStar);
        let p = b.program(&[8192, 128, 128], DType::F64, 2).unwrap();
        TuneProblem {
            workload: Workload {
                global_grid: vec![8192, 128, 128],
                reach: p.stencil.reach(),
                stats: StencilStats::of(&p.stencil, DType::F64).unwrap(),
                n_procs: 128,
                prec: Precision::Fp64,
                points: b.points(),
            },
            machine,
            network,
            options: AnnealOptions {
                iterations: 4000,
                seed,
                ..Default::default()
            },
        }
    }

    fn poor_start() -> Config {
        // Tiny tiles (massive DMA startup) and a degenerate 1D MPI grid.
        Config {
            tile: vec![1, 1, 4],
            mpi_grid: vec![128, 1, 1],
        }
    }

    #[test]
    fn factorizations_cover_all_orderings() {
        let f = factorizations(8, 3);
        assert!(f.contains(&vec![2, 2, 2]));
        assert!(f.contains(&vec![8, 1, 1]));
        assert!(f.contains(&vec![1, 4, 2]));
        for shape in &f {
            assert_eq!(shape.iter().product::<usize>(), 8);
        }
    }

    #[test]
    fn tuning_improves_substantially() {
        // Paper: 3.28x improvement after tuning.
        let m = sunway_cg();
        let n = taihulight_network();
        let r = tune(&fig11_problem(&m, &n, 1), poor_start()).unwrap();
        assert!(
            r.improvement() > 2.0,
            "improvement only {:.2}x",
            r.improvement()
        );
    }

    #[test]
    fn two_runs_converge_to_similar_performance() {
        // Paper §5.4: two invocations converge, proving stability.
        let m = sunway_cg();
        let n = taihulight_network();
        let r1 = tune(&fig11_problem(&m, &n, 1), poor_start()).unwrap();
        let r2 = tune(&fig11_problem(&m, &n, 2), poor_start()).unwrap();
        let ratio = r1.best_time_s / r2.best_time_s;
        assert!(
            (0.8..=1.25).contains(&ratio),
            "run times diverge: {} vs {}",
            r1.best_time_s,
            r2.best_time_s
        );
    }

    #[test]
    fn trace_decreases_over_iterations() {
        let m = sunway_cg();
        let n = taihulight_network();
        let r = tune(&fig11_problem(&m, &n, 3), poor_start()).unwrap();
        assert!(r.trace.len() >= 2);
        assert!(r.trace.last().unwrap().best_cost <= r.trace[0].best_cost);
    }
}
