//! Regenerators for the paper's figures (7–14).

use crate::table::render;
use msc_baselines::{halide, openacc, openmp_manual, patus, physis, BaselineCase};
use msc_core::catalog::all_benchmarks;
use msc_core::error::Result;
use msc_core::schedule::Target;
use msc_machine::model::Precision;
use msc_machine::presets::{matrix_processor, sunway_cg, xeon_server};
use msc_machine::Roofline;

/// One bar of a speedup figure.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    pub name: &'static str,
    pub speedup: f64,
}

fn average(rows: &[SpeedupRow]) -> f64 {
    rows.iter().map(|r| r.speedup).sum::<f64>() / rows.len() as f64
}

fn render_speedups(title: &str, rows: &[SpeedupRow], paper_avg: f64) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.name.to_string(), format!("{:.2}x", r.speedup)])
        .collect();
    format!(
        "{title}\n{}\naverage: {:.2}x (paper: {:.2}x)\n",
        render(&["benchmark", "speedup"], &cells),
        average(rows),
        paper_avg
    )
}

/// Figure 7: MSC vs manually optimized OpenACC on one Sunway CG.
pub fn fig7_rows(prec: Precision) -> Result<Vec<SpeedupRow>> {
    let m = sunway_cg();
    all_benchmarks()
        .iter()
        .map(|b| {
            let c = BaselineCase::for_benchmark(b, prec)?;
            let acc = openacc::step_time_s(&c, &m)?;
            let msc = c.msc_step(&m, Target::SunwayCG)?.time_s;
            Ok(SpeedupRow {
                name: b.name,
                speedup: acc / msc,
            })
        })
        .collect()
}

pub fn fig7() -> Result<String> {
    let mut out = render_speedups(
        "Figure 7 (fp64): MSC speedup over OpenACC on a Sunway CG",
        &fig7_rows(Precision::Fp64)?,
        24.4,
    );
    out += "\n";
    out += &render_speedups(
        "Figure 7 (fp32)",
        &fig7_rows(Precision::Fp32)?,
        20.7,
    );
    Ok(out)
}

/// Figure 8: MSC vs manually optimized OpenMP on Matrix.
pub fn fig8_rows(prec: Precision) -> Result<Vec<SpeedupRow>> {
    let m = matrix_processor();
    all_benchmarks()
        .iter()
        .map(|b| {
            let c = BaselineCase::for_benchmark(b, prec)?;
            let omp = openmp_manual::step_time_s(&c, &m)?;
            let msc = c.msc_step(&m, Target::Matrix)?.time_s;
            Ok(SpeedupRow {
                name: b.name,
                speedup: omp / msc,
            })
        })
        .collect()
}

pub fn fig8() -> Result<String> {
    let mut out = render_speedups(
        "Figure 8 (fp64): MSC speedup over manual OpenMP on Matrix",
        &fig8_rows(Precision::Fp64)?,
        1.05,
    );
    out += "\n";
    out += &render_speedups("Figure 8 (fp32)", &fig8_rows(Precision::Fp32)?, 1.03);
    Ok(out)
}

/// Figure 9: roofline points (fp64) on both many-core targets.
#[derive(Debug, Clone)]
pub struct RooflinePoint {
    pub name: &'static str,
    pub oi: f64,
    pub achieved_gflops: f64,
    pub attainable_gflops: f64,
    pub memory_bound: bool,
}

pub fn fig9_rows(target: Target) -> Result<Vec<RooflinePoint>> {
    let machine = match target {
        Target::SunwayCG => sunway_cg(),
        Target::Matrix => matrix_processor(),
        Target::Cpu => xeon_server(),
    };
    let roof = Roofline::of(&machine, Precision::Fp64);
    all_benchmarks()
        .iter()
        .map(|b| {
            let c = BaselineCase::for_benchmark(b, Precision::Fp64)?;
            let rep = c.msc_step(&machine, target)?;
            Ok(RooflinePoint {
                name: b.name,
                oi: rep.oi_dram,
                achieved_gflops: rep.gflops(),
                attainable_gflops: roof.attainable_gflops(rep.oi_dram),
                memory_bound: rep.bound == msc_sim::Bound::Memory,
            })
        })
        .collect()
}

pub fn fig9() -> Result<String> {
    let mut out = String::new();
    for (target, label) in [(Target::SunwayCG, "Sunway CG"), (Target::Matrix, "Matrix")] {
        let machine = match target {
            Target::SunwayCG => sunway_cg(),
            _ => matrix_processor(),
        };
        let roof = Roofline::of(&machine, Precision::Fp64);
        out += &format!(
            "Figure 9 — roofline on {label}: peak {:.0} GF/s, BW {:.1} GB/s, ridge {:.1} F/B\n",
            roof.peak_gflops, roof.bw_gbps, roof.ridge_point()
        );
        let rows: Vec<Vec<String>> = fig9_rows(target)?
            .iter()
            .map(|p| {
                vec![
                    p.name.to_string(),
                    format!("{:.2}", p.oi),
                    format!("{:.1}", p.achieved_gflops),
                    format!("{:.1}", p.attainable_gflops),
                    if p.memory_bound { "memory" } else { "compute" }.to_string(),
                ]
            })
            .collect();
        out += &render(
            &["benchmark", "OI (F/B)", "achieved GF/s", "roofline GF/s", "bound"],
            &rows,
        );
        out += "\n";
    }
    Ok(out)
}

/// Figure 10: strong/weak scalability.
pub mod scaling {
    use super::*;
    use msc_core::analysis::StencilStats;
    use msc_core::catalog::{benchmark, BenchmarkId};
    use msc_core::halo::CartDecomp;
    use msc_core::prelude::*;
    use msc_core::schedule::{preset_for_grid, ExecPlan};
    use msc_machine::presets::{taihulight_network, tianhe3_network};
    use msc_sim::{simulate_distributed, DistributedConfig};

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Mode {
        Strong,
        Weak,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Platform {
        Sunway,
        Tianhe3,
    }

    impl Platform {
        /// Cores per MPI process as the paper counts them (65 per Sunway
        /// CG including the MPE; 32 per Matrix supernode).
        pub fn cores_per_proc(self) -> usize {
            match self {
                Platform::Sunway => 65,
                Platform::Tianhe3 => 32,
            }
        }
    }

    /// One scaling configuration (a row of Table 7).
    #[derive(Debug, Clone)]
    pub struct ScaleConfig {
        pub platform: Platform,
        pub sub_grid: Vec<usize>,
        pub mpi_grid: Vec<usize>,
    }

    impl ScaleConfig {
        pub fn n_procs(&self) -> usize {
            self.mpi_grid.iter().product()
        }

        pub fn cores(&self) -> usize {
            self.n_procs() * self.platform.cores_per_proc()
        }

        pub fn global_grid(&self) -> Vec<usize> {
            self.sub_grid
                .iter()
                .zip(&self.mpi_grid)
                .map(|(&s, &p)| s * p)
                .collect()
        }
    }

    /// The Table 7 configuration series.
    pub fn configs(dim: usize, mode: Mode, platform: Platform) -> Vec<ScaleConfig> {
        let (mpi_grids_2d, mpi_grids_3d): (Vec<Vec<usize>>, Vec<Vec<usize>>) = match platform {
            Platform::Sunway => (
                vec![vec![16, 8], vec![16, 16], vec![32, 16], vec![32, 32]],
                vec![
                    vec![8, 4, 4],
                    vec![8, 8, 4],
                    vec![8, 8, 8],
                    vec![16, 8, 8],
                ],
            ),
            Platform::Tianhe3 => (
                vec![vec![8, 4], vec![8, 8], vec![16, 8], vec![16, 16]],
                vec![
                    vec![4, 4, 2],
                    vec![4, 4, 4],
                    vec![4, 8, 4],
                    vec![8, 8, 4],
                ],
            ),
        };
        let grids = if dim == 2 { mpi_grids_2d } else { mpi_grids_3d };
        let weak_sub: Vec<usize> = if dim == 2 {
            vec![4096, 4096]
        } else {
            vec![256, 256, 256]
        };
        grids
            .into_iter()
            .enumerate()
            .map(|(i, mpi)| {
                let sub = match mode {
                    Mode::Weak => weak_sub.clone(),
                    Mode::Strong => {
                        // Fixed global grid = first config's global; sub
                        // shrinks as procs grow.
                        let base = ScaleConfig {
                            platform,
                            sub_grid: weak_sub.clone(),
                            mpi_grid: configs_first_mpi(dim, platform),
                        }
                        .global_grid();
                        base.iter().zip(&mpi).map(|(&g, &p)| g / p).collect()
                    }
                };
                let _ = i;
                ScaleConfig {
                    platform,
                    sub_grid: sub,
                    mpi_grid: mpi,
                }
            })
            .collect()
    }

    fn configs_first_mpi(dim: usize, platform: Platform) -> Vec<usize> {
        match (dim, platform) {
            (2, Platform::Sunway) => vec![16, 8],
            (2, Platform::Tianhe3) => vec![8, 4],
            (_, Platform::Sunway) => vec![8, 4, 4],
            (_, Platform::Tianhe3) => vec![4, 4, 2],
        }
    }

    /// One point of a Figure 10 series.
    #[derive(Debug, Clone)]
    pub struct ScalePoint {
        pub cores: usize,
        pub gflops: f64,
        pub ideal_gflops: f64,
    }

    /// Simulate a scaling series for the representative stencils
    /// (2d9pt_star for 2D, 3d7pt_star for 3D).
    pub fn series(dim: usize, mode: Mode, platform: Platform) -> Result<Vec<ScalePoint>> {
        let bench = if dim == 2 {
            benchmark(BenchmarkId::S2d9ptStar)
        } else {
            benchmark(BenchmarkId::S3d7ptStar)
        };
        let (machine, network, target) = match platform {
            Platform::Sunway => (sunway_cg(), taihulight_network(), Target::SunwayCG),
            Platform::Tianhe3 => (matrix_processor(), tianhe3_network(), Target::Matrix),
        };
        let mut points = Vec::new();
        let mut base_per_proc_gflops = None;
        for cfg in configs(dim, mode, platform) {
            let global = cfg.global_grid();
            let p = bench.program(&global, DType::F64, 2)?;
            let stats = StencilStats::of(&p.stencil, DType::F64)?;
            let sched = preset_for_grid(dim, bench.points(), target, &cfg.sub_grid);
            let plan = ExecPlan::lower(&sched, dim, &cfg.sub_grid)?;
            let dc = DistributedConfig {
                decomp: CartDecomp::new(&global, &cfg.mpi_grid, &p.stencil.reach())?,
                prec: Precision::Fp64,
            };
            let rep = simulate_distributed(&dc, &stats, &plan, &machine, &network)?;
            let per_proc =
                base_per_proc_gflops.get_or_insert(rep.total_gflops / cfg.n_procs() as f64);
            points.push(ScalePoint {
                cores: cfg.cores(),
                gflops: rep.total_gflops,
                ideal_gflops: *per_proc * cfg.n_procs() as f64,
            });
        }
        Ok(points)
    }

    /// Speedup at the largest scale over the smallest.
    pub fn end_to_end_speedup(points: &[ScalePoint]) -> f64 {
        points.last().unwrap().gflops / points.first().unwrap().gflops
    }
}

pub fn fig10() -> Result<String> {
    use scaling::*;
    let mut out = String::new();
    for (mode, label, paper) in [
        (Mode::Strong, "strong", (6.74, 5.85)),
        (Mode::Weak, "weak", (7.85, 7.38)),
    ] {
        out += &format!("Figure 10 — {label} scalability\n");
        for (platform, paper_avg) in [(Platform::Sunway, paper.0), (Platform::Tianhe3, paper.1)] {
            for dim in [2usize, 3] {
                let pts = series(dim, mode, platform)?;
                let rows: Vec<Vec<String>> = pts
                    .iter()
                    .map(|p| {
                        vec![
                            p.cores.to_string(),
                            format!("{:.1}", p.gflops),
                            format!("{:.1}", p.ideal_gflops),
                        ]
                    })
                    .collect();
                out += &format!("\n{platform:?} {dim}D ({label}):\n");
                out += &render(&["cores", "GF/s", "ideal GF/s"], &rows);
                out += &format!(
                    "8x-scale speedup: {:.2}x (paper platform avg: {:.2}x)\n",
                    end_to_end_speedup(&pts),
                    paper_avg
                );
            }
        }
        out += "\n";
    }
    Ok(out)
}

/// Figure 11: auto-tuning convergence.
pub fn fig11() -> Result<String> {
    use msc_core::analysis::StencilStats;
    use msc_core::catalog::{benchmark, BenchmarkId};
    use msc_core::prelude::*;
    use msc_machine::presets::taihulight_network;
    use msc_tune::{tune, AnnealOptions, Config, TuneProblem};

    let b = benchmark(BenchmarkId::S3d7ptStar);
    let program = b.program(&[8192, 128, 128], DType::F64, 2)?;
    let machine = sunway_cg();
    let network = taihulight_network();
    let mut out = String::from(
        "Figure 11 — auto-tuning 3d7pt_star, 8192x128x128 on 128 Sunway CGs\n",
    );
    for seed in [1u64, 2] {
        let problem = TuneProblem {
            workload: msc_tune::perf_model::Workload {
                global_grid: vec![8192, 128, 128],
                reach: program.stencil.reach(),
                stats: StencilStats::of(&program.stencil, DType::F64)?,
                n_procs: 128,
                prec: Precision::Fp64,
                points: b.points(),
            },
            machine: &machine,
            network: &network,
            options: AnnealOptions {
                iterations: 20_000,
                seed,
                ..Default::default()
            },
        };
        let start = Config {
            tile: vec![1, 1, 4],
            mpi_grid: vec![128, 1, 1],
        };
        let r = tune(&problem, start)?;
        out += &format!(
            "run {seed}: best {:?} over MPI {:?}, step {:.3} ms (from {:.3} ms), improvement {:.2}x (paper: 3.28x), trace points {}\n",
            r.best.tile,
            r.best.mpi_grid,
            r.best_time_s * 1e3,
            r.initial_time_s * 1e3,
            r.improvement(),
            r.trace.len()
        );
        for p in r.trace.iter().take(12) {
            out += &format!("  iter {:>6}: best {:.4} ms\n", p.iteration, p.best_cost * 1e3);
        }
    }
    Ok(out)
}

/// Figure 12: vs Halide JIT/AOT on the CPU platform.
pub fn fig12_rows() -> Result<Vec<(SpeedupRow, SpeedupRow)>> {
    let m = xeon_server();
    all_benchmarks()
        .iter()
        .map(|b| {
            let c = BaselineCase::for_benchmark(b, Precision::Fp64)?;
            let jit = halide::jit_run_time_s(&c, &m, halide::FIG12_STEPS)?;
            let aot = halide::aot_step_time_s(&c, &m)? * halide::FIG12_STEPS as f64;
            let msc = halide::msc_run_time_s(&c, &m, halide::FIG12_STEPS)?;
            Ok((
                SpeedupRow {
                    name: b.name,
                    speedup: jit / aot,
                },
                SpeedupRow {
                    name: b.name,
                    speedup: jit / msc,
                },
            ))
        })
        .collect()
}

pub fn fig12() -> Result<String> {
    let rows = fig12_rows()?;
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|(aot, msc)| {
            vec![
                aot.name.to_string(),
                format!("{:.2}x", aot.speedup),
                format!("{:.2}x", msc.speedup),
            ]
        })
        .collect();
    let avg_aot = rows.iter().map(|(a, _)| a.speedup).sum::<f64>() / rows.len() as f64;
    let avg_msc = rows.iter().map(|(_, m)| m.speedup).sum::<f64>() / rows.len() as f64;
    Ok(format!(
        "Figure 12 — speedup over Halide-JIT (baseline)\n{}\naverages: Halide-AOT {:.2}x (paper 2.92x), MSC {:.2}x (paper 3.33x)\n",
        render(&["benchmark", "Halide-AOT", "MSC"], &cells),
        avg_aot,
        avg_msc
    ))
}

/// Figure 13: vs Patus.
pub fn fig13_rows() -> Result<Vec<SpeedupRow>> {
    let m = xeon_server();
    all_benchmarks()
        .iter()
        .map(|b| {
            let c = BaselineCase::for_benchmark(b, Precision::Fp64)?;
            let p = patus::step_time_s(&c, &m)?;
            let msc = c.msc_step(&m, Target::Cpu)?.time_s;
            Ok(SpeedupRow {
                name: b.name,
                speedup: p / msc,
            })
        })
        .collect()
}

pub fn fig13() -> Result<String> {
    Ok(render_speedups(
        "Figure 13 — MSC speedup over Patus (CPU)",
        &fig13_rows()?,
        5.94,
    ))
}

/// Figure 14: vs Physis.
pub fn fig14_rows() -> Result<Vec<SpeedupRow>> {
    let m = xeon_server();
    all_benchmarks()
        .iter()
        .map(|b| {
            let c = physis::PhysisCase::for_benchmark(b)?;
            Ok(SpeedupRow {
                name: b.name,
                speedup: c.speedup(&m)?,
            })
        })
        .collect()
}

pub fn fig14() -> Result<String> {
    Ok(render_speedups(
        "Figure 14 — MSC speedup over Physis (CPU, Table 8 grids)",
        &fig14_rows()?,
        9.88,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_average_band() {
        let rows = fig7_rows(Precision::Fp64).unwrap();
        let avg = average(&rows);
        assert!((12.0..=40.0).contains(&avg), "{avg}");
    }

    #[test]
    fn fig8_is_parity() {
        let rows = fig8_rows(Precision::Fp64).unwrap();
        for r in rows {
            assert!((1.0..=1.25).contains(&r.speedup), "{}: {}", r.name, r.speedup);
        }
    }

    #[test]
    fn fig9_only_2d169pt_is_compute_bound_on_sunway() {
        let rows = fig9_rows(Target::SunwayCG).unwrap();
        for p in &rows {
            if p.name == "2d169pt_box" {
                assert!(!p.memory_bound, "2d169pt must be compute-bound");
            }
        }
        // And it stays memory-bound on Matrix (paper §5.2.2).
        let rows = fig9_rows(Target::Matrix).unwrap();
        let p = rows.iter().find(|p| p.name == "2d169pt_box").unwrap();
        assert!(p.memory_bound);
    }

    #[test]
    fn fig9_achieved_below_attainable() {
        for target in [Target::SunwayCG, Target::Matrix] {
            for p in fig9_rows(target).unwrap() {
                assert!(
                    p.achieved_gflops <= p.attainable_gflops * 1.01,
                    "{target:?} {}: {} > {}",
                    p.name,
                    p.achieved_gflops,
                    p.attainable_gflops
                );
            }
        }
    }

    #[test]
    fn fig10_weak_scaling_is_near_ideal() {
        use scaling::*;
        for platform in [Platform::Sunway, Platform::Tianhe3] {
            for dim in [2, 3] {
                let pts = series(dim, Mode::Weak, platform).unwrap();
                let s = end_to_end_speedup(&pts);
                assert!((6.0..=8.2).contains(&s), "{platform:?} {dim}D weak: {s}");
            }
        }
    }

    #[test]
    fn fig10_strong_scaling_matches_paper_shape() {
        use scaling::*;
        // Sunway strong scaling near-ideal; Tianhe-3 2D deviates due to
        // congestion (paper §5.3).
        let sun3 = end_to_end_speedup(&series(3, Mode::Strong, Platform::Sunway).unwrap());
        assert!((5.5..=8.2).contains(&sun3), "sunway 3D strong {sun3}");
        let th3_3d = end_to_end_speedup(&series(3, Mode::Strong, Platform::Tianhe3).unwrap());
        let th3_2d = end_to_end_speedup(&series(2, Mode::Strong, Platform::Tianhe3).unwrap());
        assert!(
            th3_2d < th3_3d,
            "2D strong scaling must congest more: 2D {th3_2d} vs 3D {th3_3d}"
        );
    }

    #[test]
    fn fig12_halide_crossover() {
        let rows = fig12_rows().unwrap();
        let aot = |n: &str| rows.iter().find(|(a, _)| a.name == n).unwrap().0.speedup;
        let msc = |n: &str| rows.iter().find(|(a, _)| a.name == n).unwrap().1.speedup;
        // Small stencils: Halide-AOT ahead; large: MSC ahead.
        assert!(aot("3d7pt_star") > msc("3d7pt_star"));
        assert!(msc("2d169pt_box") > aot("2d169pt_box"));
    }

    #[test]
    fn fig13_and_fig14_msc_wins() {
        for r in fig13_rows().unwrap() {
            assert!(r.speedup > 1.0, "patus {}: {}", r.name, r.speedup);
        }
        for r in fig14_rows().unwrap() {
            assert!(r.speedup > 1.0, "physis {}: {}", r.name, r.speedup);
        }
    }

    #[test]
    fn renders_do_not_panic() {
        fig7().unwrap();
        fig8().unwrap();
        fig9().unwrap();
        fig12().unwrap();
        fig13().unwrap();
        fig14().unwrap();
    }
}
