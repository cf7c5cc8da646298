//! The analytical performance model (paper §4.4): predicts large-scale
//! stencil step time from a configuration's features — kernel
//! computation, DMA/memory traffic, packing/unpacking, message transfer,
//! and MPI startup — with coefficients fitted by linear regression
//! against simulator measurements.

use crate::linreg::LinearModel;
use msc_core::analysis::StencilStats;
use msc_core::error::{MscError, Result};
use msc_core::halo::CartDecomp;
use msc_core::schedule::{preset_for_grid, ExecPlan, Target};
use msc_machine::model::{MachineModel, Precision};
use msc_machine::NetworkModel;
use msc_sim::{simulate_distributed, DistributedConfig};
use msc_trace::{Counter, Profile};

/// One tunable configuration: tile sizes plus the MPI process grid shape
/// (the two parameter families §5.4 tunes).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Config {
    pub tile: Vec<usize>,
    pub mpi_grid: Vec<usize>,
}

/// The tuning context: everything fixed during a search.
#[derive(Debug, Clone)]
pub struct Workload {
    pub global_grid: Vec<usize>,
    pub reach: Vec<usize>,
    pub stats: StencilStats,
    pub n_procs: usize,
    pub prec: Precision,
    pub points: usize,
}

impl Workload {
    /// The decomposition a config stands for; `Err` for a process grid
    /// the runtime would refuse (uneven, or sub-grids narrower than the
    /// reach).
    fn distributed(&self, cfg: &Config) -> Result<DistributedConfig> {
        let decomp = CartDecomp::new(&self.global_grid, &cfg.mpi_grid, &self.reach)?;
        Ok(DistributedConfig {
            decomp,
            prec: self.prec,
        })
    }

    /// Ground-truth evaluation: full simulator step time for a config.
    pub fn measure(
        &self,
        cfg: &Config,
        machine: &MachineModel,
        network: &NetworkModel,
    ) -> Result<f64> {
        let dc = self.distributed(cfg)?;
        let sub = dc.decomp.sub_extent();
        let mut sched = preset_for_grid(sub.len(), self.points, Target::SunwayCG, &sub);
        let tile: Vec<usize> = cfg.tile.iter().zip(&sub).map(|(&t, &s)| t.min(s)).collect();
        sched.tile(&tile);
        let plan = ExecPlan::lower(&sched, sub.len(), &sub)?;
        let rep = simulate_distributed(&dc, &self.stats, &plan, machine, network)?;
        Ok(rep.step_time_s)
    }

    /// Feature vector of a config for the regression model:
    /// `[1, flops/proc, tile halo overhead, n_tiles/core, halo bytes,
    /// msgs]` — the last two are the halo plan's volume, as the
    /// simulator charges it.
    pub fn features(&self, cfg: &Config) -> Result<Vec<f64>> {
        let dc = self.distributed(cfg)?;
        let sub = dc.decomp.sub_extent();
        let sub_points: f64 = sub.iter().product::<usize>() as f64;
        let tile: Vec<usize> = cfg.tile.iter().zip(&sub).map(|(&t, &s)| t.min(s)).collect();
        let tile_elems: f64 = tile.iter().product::<usize>() as f64;
        let tile_halo: f64 = tile
            .iter()
            .zip(&self.reach)
            .map(|(&t, &r)| (t + 2 * r) as f64)
            .product();
        let (msgs, halo_bytes) = dc.halo_volume();
        Ok(vec![
            1.0,
            self.stats.flops_per_point() * sub_points * 1e-9,
            tile_halo / tile_elems, // overlapped-halo DMA overhead
            sub_points / tile_elems, // per-core task count (startup costs)
            halo_bytes * 1e-6,
            msgs as f64,
        ])
    }
}

/// One *measured* observation: a configuration plus the per-step time
/// actually observed when running it — the feedback edge that lets the
/// model calibrate against reality instead of the simulator.
#[derive(Debug, Clone)]
pub struct MeasuredSample {
    pub cfg: Config,
    /// Observed seconds per timestep.
    pub step_time_s: f64,
}

impl MeasuredSample {
    pub fn new(cfg: Config, step_time_s: f64) -> MeasuredSample {
        MeasuredSample { cfg, step_time_s }
    }

    /// Derive the per-step time from a runtime [`Profile`]: the recorded
    /// span timeline divided by the step counter. Requires a profile
    /// captured with tracing enabled (otherwise there is no timeline to
    /// divide).
    pub fn from_profile(cfg: Config, profile: &Profile) -> Result<MeasuredSample> {
        let steps = profile.get(Counter::Steps);
        let span_ns = profile.timeline_ns();
        if steps == 0 || span_ns == 0 {
            return Err(MscError::InvalidConfig(format!(
                "profile '{}' has no measured timeline ({} steps, {} ns) — \
                 was tracing enabled?",
                profile.label, steps, span_ns
            )));
        }
        Ok(MeasuredSample {
            cfg,
            step_time_s: span_ns as f64 * 1e-9 / steps as f64,
        })
    }
}

/// The fitted performance model.
#[derive(Debug, Clone)]
pub struct PerfModel {
    pub model: LinearModel,
}

impl PerfModel {
    /// Fit against simulator measurements of `samples`.
    pub fn fit(
        workload: &Workload,
        samples: &[Config],
        machine: &MachineModel,
        network: &NetworkModel,
    ) -> Result<PerfModel> {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for cfg in samples {
            // Skip infeasible configs rather than failing the fit.
            let (Ok(x), Ok(y)) = (
                workload.features(cfg),
                workload.measure(cfg, machine, network),
            ) else {
                continue;
            };
            xs.push(x);
            ys.push(y);
        }
        if xs.len() < 8 {
            return Err(MscError::InvalidConfig(format!(
                "too few feasible samples to fit the model ({})",
                xs.len()
            )));
        }
        Ok(PerfModel {
            model: LinearModel::fit(&xs, &ys)?,
        })
    }

    /// Calibrate from measured runs instead of simulator sweeps: trace
    /// profiles come in as [`MeasuredSample`]s, fitted coefficients come
    /// out. Infeasible configs and non-positive times are skipped.
    pub fn fit_measured(workload: &Workload, samples: &[MeasuredSample]) -> Result<PerfModel> {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for s in samples {
            let Ok(x) = workload.features(&s.cfg) else {
                continue;
            };
            if !s.step_time_s.is_finite() || s.step_time_s <= 0.0 {
                continue;
            }
            xs.push(x);
            ys.push(s.step_time_s);
        }
        if xs.len() < 8 {
            return Err(MscError::InvalidConfig(format!(
                "too few usable measured samples to calibrate ({})",
                xs.len()
            )));
        }
        Ok(PerfModel {
            model: LinearModel::fit(&xs, &ys)?,
        })
    }

    /// Predicted step time for a config (may be slightly negative for
    /// extreme extrapolations; clamped at zero).
    pub fn predict(&self, workload: &Workload, cfg: &Config) -> Result<f64> {
        Ok(self.model.predict(&workload.features(cfg)?).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_core::catalog::{benchmark, BenchmarkId};
    use msc_core::prelude::*;
    use msc_machine::presets::{sunway_cg, taihulight_network};

    pub fn fig11_workload() -> Workload {
        let b = benchmark(BenchmarkId::S3d7ptStar);
        let p = b.program(&[8192, 128, 128], DType::F64, 2).unwrap();
        Workload {
            global_grid: vec![8192, 128, 128],
            reach: p.stencil.reach(),
            stats: StencilStats::of(&p.stencil, DType::F64).unwrap(),
            n_procs: 128,
            prec: Precision::Fp64,
            points: b.points(),
        }
    }

    fn sample_configs() -> Vec<Config> {
        let mut v = Vec::new();
        for &tx in &[2usize, 4, 8] {
            for &ty in &[4usize, 8, 16] {
                for &tz in &[16usize, 32, 64] {
                    for mpi in [[128, 1, 1], [32, 2, 2], [8, 4, 4], [64, 2, 1]] {
                        v.push(Config {
                            tile: vec![tx, ty, tz],
                            mpi_grid: mpi.to_vec(),
                        });
                    }
                }
            }
        }
        v
    }

    #[test]
    fn model_fits_simulator_reasonably() {
        let w = fig11_workload();
        let m = sunway_cg();
        let n = taihulight_network();
        let samples = sample_configs();
        let pm = PerfModel::fit(&w, &samples, &m, &n).unwrap();
        // Check prediction quality on the training configs.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for c in &samples {
            xs.push(w.features(c).unwrap());
            ys.push(w.measure(c, &m, &n).unwrap());
        }
        let r2 = pm.model.r_squared(&xs, &ys);
        assert!(r2 > 0.7, "R^2 = {r2}");
    }

    #[test]
    fn measured_sample_divides_timeline_by_steps() {
        use msc_trace::{CounterSet, SpanKind, SpanRecord};
        let mut c = CounterSet::new();
        c.set(msc_trace::Counter::Steps, 4);
        let mut p = msc_trace::Profile::from_counters("run", c);
        p.spans.push(SpanRecord {
            name: "step",
            thread: 0,
            start_ns: 1_000,
            dur_ns: 2_000,
            kind: SpanKind::Complete,
            ..SpanRecord::EMPTY
        });
        p.spans.push(SpanRecord {
            name: "step",
            thread: 0,
            start_ns: 7_000,
            dur_ns: 2_000,
            kind: SpanKind::Complete,
            ..SpanRecord::EMPTY
        });
        let cfg = Config {
            tile: vec![2, 8, 64],
            mpi_grid: vec![8, 4, 4],
        };
        // Timeline spans [1000, 9000] ns over 4 steps: 2 µs/step.
        let s = MeasuredSample::from_profile(cfg.clone(), &p).unwrap();
        assert!((s.step_time_s - 2e-6).abs() < 1e-15);
        // A counters-only profile (tracing disabled) has no timeline.
        let empty = msc_trace::Profile::from_counters("cold", c);
        assert!(MeasuredSample::from_profile(cfg, &empty).is_err());
    }

    #[test]
    fn measured_calibration_reproduces_tile_ranking() {
        // Feed the fit *measured* samples (here: simulator ground truth
        // standing in for trace-profile times) and check the calibrated
        // model ranks configurations like the measurements do.
        let w = fig11_workload();
        let m = sunway_cg();
        let n = taihulight_network();
        let samples: Vec<MeasuredSample> = sample_configs()
            .into_iter()
            .filter_map(|c| {
                let t = w.measure(&c, &m, &n).ok()?;
                Some(MeasuredSample::new(c, t))
            })
            .collect();
        assert!(samples.len() >= 8);
        let pm = PerfModel::fit_measured(&w, &samples).unwrap();

        let mut by_measured: Vec<&MeasuredSample> = samples.iter().collect();
        by_measured.sort_by(|a, b| a.step_time_s.total_cmp(&b.step_time_s));
        let mut by_predicted: Vec<&MeasuredSample> = samples.iter().collect();
        by_predicted.sort_by(|a, b| {
            let pa = pm.predict(&w, &a.cfg).unwrap();
            let pb = pm.predict(&w, &b.cfg).unwrap();
            pa.total_cmp(&pb)
        });
        // The model's top pick must be among the measured top decile.
        let decile = by_measured.len().div_ceil(10);
        let best_pred = &by_predicted[0].cfg;
        assert!(
            by_measured[..decile].iter().any(|s| &s.cfg == best_pred),
            "predicted best {best_pred:?} not in measured top {decile}"
        );
    }

    #[test]
    fn features_are_finite_and_positive_scale() {
        let w = fig11_workload();
        let f = w
            .features(&Config {
                tile: vec![2, 8, 64],
                mpi_grid: vec![8, 4, 4],
            })
            .unwrap();
        assert_eq!(f.len(), 6);
        assert!(f.iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    #[test]
    fn measure_rejects_indivisible_mpi_grid() {
        let w = fig11_workload();
        let cfg = Config {
            tile: vec![2, 8, 64],
            mpi_grid: vec![3, 4, 4],
        };
        assert!(w
            .measure(&cfg, &sunway_cg(), &taihulight_network())
            .is_err());
    }
}
