//! Default schedules per benchmark and target, reproducing the paper's
//! Table 5 ("The parameter settings of 2D/3D stencils using MSC on a
//! single Sunway (a CG) / Matrix (32 cores) processor").

use crate::dsl::StencilProgram;
use crate::schedule::primitives::{BufferScope, Schedule};

/// Code-generation / execution target (paper: `st.build("sunway")`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// One Sunway SW26010 core group: 1 MPE + 64 CPEs, SPM + DMA.
    SunwayCG,
    /// Matrix MT2000+ supernode allocation (32 cache-coherent cores).
    Matrix,
    /// Generic multicore CPU (the paper's E5-2680v4 platform).
    Cpu,
}

impl Target {
    /// Threads used by the paper's single-processor experiments.
    pub fn default_threads(self) -> usize {
        match self {
            Target::SunwayCG => 64, // CPEs per CG
            Target::Matrix => 32,   // one supernode allocation
            Target::Cpu => 28,      // two-socket E5-2680v4
        }
    }

    /// Whether the target is cache-less and needs SPM/DMA staging.
    pub fn needs_spm(self) -> bool {
        matches!(self, Target::SunwayCG)
    }

    /// The target [`Target::as_str`] names: what a source's `target`
    /// clause, an `mscd` request and `mscc --target` all accept.
    pub fn from_name(name: &str) -> Option<Target> {
        [Target::SunwayCG, Target::Matrix, Target::Cpu]
            .into_iter()
            .find(|t| t.as_str() == name)
    }

    /// The string accepted by `build()` in the paper's Listing 2.
    pub fn as_str(self) -> &'static str {
        match self {
            Target::SunwayCG => "sunway",
            Target::Matrix => "matrix",
            Target::Cpu => "cpu",
        }
    }
}

/// Table 5 tile sizes. `ndim` and `points` identify the benchmark class:
/// low-order 2D (9pt), high-order 2D (121/169pt), low-order 3D (7/13pt),
/// high-order 3D (25/31pt).
pub fn table5_tile(ndim: usize, points: usize, target: Target) -> Vec<usize> {
    match (ndim, target) {
        (2, Target::SunwayCG) => {
            if points <= 9 {
                vec![32, 64]
            } else {
                vec![16, 32]
            }
        }
        (2, _) => vec![2, 2048],
        (3, Target::SunwayCG) => {
            if points <= 13 {
                vec![2, 8, 64]
            } else {
                vec![2, 4, 32]
            }
        }
        (3, _) => vec![2, 8, 256],
        _ => vec![1; ndim],
    }
}

/// Table 5 reorder rule: all outer axes then all inner axes.
pub fn table5_reorder(ndim: usize) -> Vec<&'static str> {
    match ndim {
        2 => vec!["xo", "yo", "xi", "yi"],
        _ => vec!["xo", "yo", "zo", "xi", "yi", "zi"],
    }
}

/// Build the full Table 5 schedule for a benchmark on a target, including
/// the Sunway SPM/DMA primitives of Listing 2.
pub fn preset_for(ndim: usize, points: usize, target: Target) -> Schedule {
    let mut s = Schedule::default();
    s.tile(&table5_tile(ndim, points, target))
        .reorder(&table5_reorder(ndim))
        .parallel("xo", target.default_threads());
    finish_preset(&mut s, ndim, target);
    s
}

/// Table 5 schedule with tile factors clamped to a concrete grid (the
/// presets assume the paper's 4096²/256³ grids; smaller grids clamp).
pub fn preset_for_grid(ndim: usize, points: usize, target: Target, grid: &[usize]) -> Schedule {
    let tile: Vec<usize> = table5_tile(ndim, points, target)
        .into_iter()
        .zip(grid)
        .map(|(t, &g)| t.min(g))
        .collect();
    let mut s = Schedule::default();
    s.tile(&tile)
        .reorder(&table5_reorder(ndim))
        .parallel("xo", target.default_threads());
    finish_preset(&mut s, ndim, target);
    s
}

/// The schedule `program` compiles and runs under on `target`: its first
/// kernel's own schedule if that names tiles or `parallel`, else the
/// Table 5 preset clamped to the grid. The one statement of that rule —
/// `mscc`, `mscd` and the OpenMP code generator all call it.
pub fn effective_schedule(program: &StencilProgram, target: Target) -> Schedule {
    let k = &program.stencil.kernels[0];
    if k.schedule.tile_factors.is_empty() && k.schedule.parallel.is_none() {
        preset_for_grid(k.ndim, k.points(), target, &program.grid.shape)
    } else {
        k.schedule.clone()
    }
}

fn finish_preset(s: &mut Schedule, ndim: usize, target: Target) {
    if target.needs_spm() {
        s.cache_read("B", "buffer_read", BufferScope::Global)
            .cache_write("buffer_write", BufferScope::Global);
        let dma_axis = if ndim == 2 { "yo" } else { "zo" };
        s.compute_at("buffer_read", dma_axis)
            .compute_at("buffer_write", dma_axis);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::legality;

    #[test]
    fn a_target_is_found_by_the_name_it_prints() {
        for target in [Target::SunwayCG, Target::Matrix, Target::Cpu] {
            assert_eq!(Target::from_name(target.as_str()), Some(target));
        }
        assert_eq!(Target::from_name("Sunway"), None);
        assert_eq!(Target::from_name(""), None);
    }

    #[test]
    fn table5_sunway_tiles() {
        assert_eq!(table5_tile(2, 9, Target::SunwayCG), vec![32, 64]);
        assert_eq!(table5_tile(2, 121, Target::SunwayCG), vec![16, 32]);
        assert_eq!(table5_tile(3, 7, Target::SunwayCG), vec![2, 8, 64]);
        assert_eq!(table5_tile(3, 25, Target::SunwayCG), vec![2, 4, 32]);
    }

    #[test]
    fn table5_matrix_tiles() {
        assert_eq!(table5_tile(2, 9, Target::Matrix), vec![2, 2048]);
        assert_eq!(table5_tile(3, 31, Target::Matrix), vec![2, 8, 256]);
    }

    #[test]
    fn presets_are_legal_on_paper_grids() {
        for (ndim, points, grid) in [
            (2usize, 9usize, vec![4096usize, 4096]),
            (2, 121, vec![4096, 4096]),
            (3, 7, vec![256, 256, 256]),
            (3, 25, vec![256, 256, 256]),
        ] {
            for target in [Target::SunwayCG, Target::Matrix, Target::Cpu] {
                let s = preset_for(ndim, points, target);
                legality::check(&s, ndim, &grid).unwrap_or_else(|e| {
                    panic!("preset ({ndim}d {points}pt {target:?}) illegal: {e}")
                });
            }
        }
    }

    #[test]
    fn sunway_preset_stages_through_spm() {
        let s = preset_for(3, 7, Target::SunwayCG);
        assert!(s.uses_spm());
        assert_eq!(s.n_threads(), 64);
    }

    #[test]
    fn matrix_preset_uses_caches_not_spm() {
        let s = preset_for(3, 7, Target::Matrix);
        assert!(!s.uses_spm());
        assert_eq!(s.n_threads(), 32);
    }

    #[test]
    fn a_kernels_own_schedule_wins_over_the_preset() {
        use crate::catalog::{benchmark, BenchmarkId};
        use crate::dtype::DType;
        let mut p = benchmark(BenchmarkId::S3d7ptStar)
            .program(&[16, 16, 16], DType::F64, 1)
            .unwrap();
        for k in &mut p.stencil.kernels {
            k.schedule = Schedule::default();
        }
        // Nothing named: the Table 5 preset, clamped to the 16^3 grid.
        assert_eq!(
            effective_schedule(&p, Target::Matrix),
            preset_for_grid(3, 7, Target::Matrix, &[16, 16, 16])
        );
        // `parallel` alone is a schedule of the kernel's own.
        p.stencil.kernels[0].schedule.parallel("xo", 3);
        assert_eq!(
            effective_schedule(&p, Target::Matrix),
            p.stencil.kernels[0].schedule
        );
        let mut own = Schedule::default();
        own.tile(&[4, 4, 16]);
        p.stencil.kernels[0].schedule = own.clone();
        assert_eq!(effective_schedule(&p, Target::SunwayCG), own);
    }

    #[test]
    fn target_strings_match_listing2() {
        assert_eq!(Target::SunwayCG.as_str(), "sunway");
        assert_eq!(Target::Matrix.as_str(), "matrix");
    }
}
