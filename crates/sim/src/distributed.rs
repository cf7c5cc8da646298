//! Multi-node simulation: per-step time = kernel time on the sub-grid +
//! asynchronous halo-exchange time (paper §5.3, Figure 10).

use crate::report::StepReport;
use crate::step::{simulate_step, StepInputs};
use msc_core::analysis::StencilStats;
use msc_core::error::{MscError, Result};
use msc_core::halo::{Backend, CartDecomp, HaloPlan};
use msc_core::schedule::plan::ExecPlan;
use msc_machine::model::{MachineModel, Precision};
use msc_machine::NetworkModel;

/// Configuration of one distributed run.
#[derive(Debug, Clone)]
pub struct DistributedConfig {
    /// The global grid over the MPI process grid (one process per
    /// node/CG), halo as wide as the stencil reach: the runtime's own
    /// decomposition, so what it refuses (uneven division, sub-grids
    /// narrower than the reach) cannot be simulated either.
    pub decomp: CartDecomp,
    pub prec: Precision,
}

impl DistributedConfig {
    /// `(messages, bytes)` the busiest process sends per step: the volume
    /// of the halo plan `msc-comm` runs by default, for the rank at
    /// coordinate `min(1, procs − 1)` of every dimension — it has every
    /// neighbour any rank has, and every rank waits for it. Only the
    /// freshly computed state is exchanged each step — older window
    /// states were published when they were fresh (see
    /// `msc-comm::distributed`).
    pub fn halo_volume(&self) -> (usize, f64) {
        let busiest: Vec<usize> = self.decomp.procs.iter().map(|&p| 1.min(p - 1)).collect();
        let rank = self.decomp.rank_of(&busiest);
        let (msgs, elems) = HaloPlan::new(&self.decomp, rank, Backend::DimOrdered).volume();
        (msgs, (elems * self.prec.bytes()) as f64)
    }
}

/// Result of a distributed step simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributedReport {
    /// Per-step wall time (compute + non-overlapped communication).
    pub step_time_s: f64,
    pub kernel: StepReport,
    pub comm_s: f64,
    /// Aggregate achieved GFlop/s over all processes.
    pub total_gflops: f64,
}

/// Simulate one distributed timestep: each process runs the kernel on its
/// sub-grid and the asynchronous halo exchange overlaps partially with
/// computation (MSC interleaves communication and computation, §3; we
/// charge the non-overlapped remainder).
pub fn simulate_distributed(
    cfg: &DistributedConfig,
    stats: &StencilStats,
    plan: &ExecPlan,
    machine: &MachineModel,
    network: &NetworkModel,
) -> Result<DistributedReport> {
    let sub = cfg.decomp.sub_extent();
    if plan.grid != sub {
        return Err(MscError::InvalidConfig(format!(
            "plan grid {:?} must equal the sub-grid {:?}",
            plan.grid, sub
        )));
    }
    let kernel = simulate_step(
        &StepInputs {
            stats: *stats,
            reach: cfg.decomp.reach.clone(),
            plan,
            prec: cfg.prec,
        },
        machine,
    );

    let (msgs, halo_bytes) = cfg.halo_volume();
    // Wire time overlaps with interior computation (MSC interleaves
    // communication and computation, §3); at most half the kernel time
    // can hide it.
    let wire_s = network.exchange_time_s(msgs, halo_bytes, cfg.decomp.n_ranks());
    let hidden = (kernel.time_s * 0.5).min(wire_s);
    // Pack/unpack touches the halo bytes once on each side, and the
    // per-message software overhead cannot be hidden.
    let pack_s = machine.mem_time_s(2.0 * halo_bytes);
    let sw_s = network.software_overhead_s(msgs, halo_bytes, cfg.decomp.n_ranks());
    let comm_s = wire_s - hidden + pack_s + sw_s;
    let step_time_s = kernel.time_s + comm_s;

    let total_flops = kernel.flops * cfg.decomp.n_ranks() as f64;
    Ok(DistributedReport {
        step_time_s,
        kernel,
        comm_s,
        total_gflops: total_flops / step_time_s / 1e9,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_core::analysis::StencilStats;
    use msc_core::catalog::{benchmark, BenchmarkId};
    use msc_core::prelude::*;
    use msc_core::schedule::{preset_for, Target};
    use msc_machine::presets::{sunway_cg, taihulight_network};

    fn cfg(global: Vec<usize>, mpi: Vec<usize>) -> DistributedConfig {
        config(&global, &mpi, &[1, 1, 1]).unwrap()
    }

    fn config(global: &[usize], mpi: &[usize], reach: &[usize]) -> Result<DistributedConfig> {
        Ok(DistributedConfig {
            decomp: CartDecomp::new(global, mpi, reach)?,
            prec: Precision::Fp64,
        })
    }

    fn run(c: &DistributedConfig) -> DistributedReport {
        let b = benchmark(BenchmarkId::S3d7ptStar);
        let p = b.program(&c.decomp.global, DType::F64, 2).unwrap();
        let stats = StencilStats::of(&p.stencil, DType::F64).unwrap();
        let sub = c.decomp.sub_extent();
        let sched = preset_for(3, 7, Target::SunwayCG);
        let plan = ExecPlan::lower(&sched, 3, &sub).unwrap();
        simulate_distributed(c, &stats, &plan, &sunway_cg(), &taihulight_network()).unwrap()
    }

    #[test]
    fn sub_grid_division() {
        let c = cfg(vec![2048, 1024, 1024], vec![8, 4, 4]);
        assert_eq!(c.decomp.sub_extent(), vec![256, 256, 256]);
        assert_eq!(c.decomp.n_ranks(), 128);
    }

    #[test]
    fn the_runtimes_decomposition_rule_rejects_what_it_rejects_there() {
        assert!(config(&[100, 100, 100], &[3, 1, 1], &[1, 1, 1]).is_err()); // indivisible
        assert!(config(&[8, 8, 8], &[8, 1, 1], &[2, 2, 2]).is_err()); // sub-grid < reach
        assert!(config(&[8, 8, 8], &[0, 1, 1], &[1, 1, 1]).is_err());
        assert!(config(&[8, 8, 8], &[2, 2], &[1, 1, 1]).is_err());
    }

    #[test]
    fn halo_volume_is_the_plans_for_the_busiest_rank() {
        // 256^3 sub-grids, reach 1, a neighbour on both sides of every
        // dimension: the dim-0 faces are interior-sized, each later
        // dimension's span the padded range of the earlier ones (that is
        // how corners travel), two messages per dimension.
        let c = cfg(vec![2048, 1024, 1024], vec![8, 4, 4]);
        let elems = 2 * (256 * 256 + 258 * 256 + 258 * 258);
        assert_eq!(elems, 2 * (65_536 + 66_048 + 66_564));
        assert_eq!(c.halo_volume(), (6, (elems * 8) as f64));
        // The benchmark's `halo2r` decomposition: two ranks, one neighbour
        // each, one 64x64 face of doubles.
        let c = cfg(vec![64, 64, 64], vec![2, 1, 1]);
        assert_eq!(c.halo_volume(), (1, 32_768.0));
        // A dimension the stencil does not reach into costs nothing,
        // however many processes share it.
        let mut c = config(&[64, 64], &[2, 2], &[1, 0]).unwrap();
        c.prec = Precision::Fp32;
        assert_eq!(c.halo_volume(), (1, (32 * 4) as f64));
        let c = config(&[64, 64], &[1, 2], &[1, 0]).unwrap();
        assert_eq!(c.halo_volume(), (0, 0.0));
    }

    #[test]
    fn no_rank_sends_more_than_the_modelled_one() {
        for (global, mpi, reach) in [
            (vec![64, 64, 64], vec![2, 1, 1], vec![1, 1, 1]),
            (vec![64, 64, 64], vec![2, 2, 2], vec![1, 1, 1]),
            (vec![36, 36], vec![3, 3], vec![2, 2]),
            (vec![32, 48, 16], vec![4, 3, 1], vec![2, 1, 1]),
        ] {
            let c = config(&global, &mpi, &reach).unwrap();
            let per_rank = (0..c.decomp.n_ranks())
                .map(|r| HaloPlan::new(&c.decomp, r, Backend::DimOrdered).volume());
            let most = per_rank
                .reduce(|a, b| (a.0.max(b.0), a.1.max(b.1)))
                .unwrap();
            assert_eq!(c.halo_volume(), (most.0, (most.1 * 8) as f64), "{mpi:?}");
        }
    }

    #[test]
    fn unpartitioned_dims_exchange_nothing() {
        let c = cfg(vec![256, 256, 256], vec![1, 1, 1]);
        assert_eq!(c.halo_volume(), (0, 0.0));
    }

    #[test]
    fn weak_scaling_keeps_step_time_nearly_flat() {
        // Same sub-grid per process, more processes: step time grows only
        // by congestion.
        let t128 = run(&cfg(vec![2048, 1024, 1024], vec![8, 4, 4]));
        let t1024 = run(&cfg(vec![4096, 4096, 1024], vec![16, 16, 4]));
        let ratio = t1024.step_time_s / t128.step_time_s;
        assert!(ratio < 1.25, "weak scaling step ratio {ratio}");
        // Aggregate throughput scales near 8x.
        let speedup = t1024.total_gflops / t128.total_gflops;
        assert!(speedup > 6.0, "weak speedup {speedup}");
    }

    #[test]
    fn strong_scaling_shrinks_step_time() {
        let base = cfg(vec![2048, 2048, 1024], vec![8, 4, 4]);
        let scaled = cfg(vec![2048, 2048, 1024], vec![16, 8, 8]);
        let t_base = run(&base);
        let t_scaled = run(&scaled);
        assert!(t_scaled.step_time_s < t_base.step_time_s);
        let speedup = t_scaled.total_gflops / t_base.total_gflops;
        assert!(speedup > 4.0 && speedup <= 8.2, "strong speedup {speedup}");
    }

    #[test]
    fn plan_grid_mismatch_rejected() {
        let c = cfg(vec![512, 512, 512], vec![2, 2, 2]);
        let b = benchmark(BenchmarkId::S3d7ptStar);
        let p = b.program(&c.decomp.global, DType::F64, 2).unwrap();
        let stats = StencilStats::of(&p.stencil, DType::F64).unwrap();
        let sched = preset_for(3, 7, Target::SunwayCG);
        let plan = ExecPlan::lower(&sched, 3, &[128, 128, 128]).unwrap();
        assert!(
            simulate_distributed(&c, &stats, &plan, &sunway_cg(), &taihulight_network())
                .is_err()
        );
    }
}
