//! Static analysis of kernels and stencils: per-point memory traffic and
//! arithmetic (the quantities behind Table 4 and the roofline model of
//! Figure 9).

use crate::dtype::DType;
use crate::error::Result;
use crate::footprint::Footprint;
use crate::kernel::Kernel;
use crate::stencil::Stencil;

/// Per-point statistics of a single kernel sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelStats {
    /// Distinct grid points read per output point.
    pub points: usize,
    /// Bytes read per output point (no reuse assumed — the Table 4
    /// convention).
    pub read_bytes: usize,
    /// Bytes written per output point.
    pub write_bytes: usize,
    /// Adds + subs in the expression.
    pub adds: usize,
    /// Multiplies in the expression.
    pub muls: usize,
}

impl KernelStats {
    /// Analyze a kernel for a given element type. Reads are the kernel's
    /// distinct `(tensor, time, offset)` accesses, so a grid point
    /// referenced through two syntactic paths counts once.
    pub fn of(kernel: &Kernel, dtype: DType) -> KernelStats {
        let e = kernel.expr();
        let points = kernel.points();
        KernelStats {
            points,
            read_bytes: points * dtype.size_bytes(),
            write_bytes: dtype.size_bytes(),
            adds: e.count_adds(),
            muls: e.count_muls(),
        }
    }

    /// Total arithmetic ops (`+ - ×`) per point.
    pub fn ops(&self) -> usize {
        self.adds + self.muls
    }

    /// *Naive* operational intensity: flops over cold-cache traffic
    /// (every read from memory). This is what places the benchmarks far
    /// left on the roofline.
    pub fn naive_intensity(&self) -> f64 {
        self.ops() as f64 / (self.read_bytes + self.write_bytes) as f64
    }

    /// Operational intensity with perfect on-chip reuse: each point is
    /// loaded once and stored once per sweep, so DRAM traffic is
    /// `2 × sizeof(elem)` regardless of the stencil order. This is what
    /// SPM blocking on Sunway approaches (paper §5.2.1: "each data point
    /// reused about 13 times").
    pub fn reuse_intensity(&self, dtype: DType) -> f64 {
        self.ops() as f64 / (2 * dtype.size_bytes()) as f64
    }
}

/// Statistics of a full temporal stencil step (all time terms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StencilStats {
    /// Per-point stats summed over all temporal terms.
    pub points: usize,
    pub read_bytes: usize,
    pub write_bytes: usize,
    pub adds: usize,
    pub muls: usize,
    /// Number of temporal dependencies.
    pub time_deps: usize,
}

impl StencilStats {
    /// Analyze a stencil: each time term performs its kernel sweep over
    /// its input state, plus `terms-1` adds and `terms` weight multiplies
    /// to combine them. Reads are deduped by absolute `(tensor,
    /// dt + time_back, offset)` across terms — two terms (or two kernels)
    /// touching the same point of the same state load it once.
    pub fn of(stencil: &Stencil, dtype: DType) -> Result<StencilStats> {
        let fp = Footprint::of_stencil(stencil)?;
        let points = fp.distinct_points();
        let read = points * dtype.size_bytes();
        let mut adds = 0;
        let mut muls = 0;
        for term in &stencil.terms {
            let k = stencil.kernel(&term.kernel)?;
            let ks = KernelStats::of(k, dtype);
            adds += ks.adds;
            muls += ks.muls;
        }
        let nterms = stencil.terms.len();
        adds += nterms.saturating_sub(1);
        muls += nterms;
        Ok(StencilStats {
            points,
            read_bytes: read,
            write_bytes: dtype.size_bytes(),
            adds,
            muls,
            time_deps: stencil.time_deps(),
        })
    }

    pub fn ops(&self) -> f64 {
        (self.adds + self.muls) as f64
    }

    /// DRAM-level operational intensity assuming on-chip reuse within each
    /// sweep: one load per live input state plus one store.
    pub fn reuse_intensity(&self, dtype: DType) -> f64 {
        let traffic = (self.time_deps + 1) * dtype.size_bytes();
        self.ops() / traffic as f64
    }

    /// Flops per grid point per timestep.
    pub fn flops_per_point(&self) -> f64 {
        self.ops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{all_benchmarks, benchmark, BenchmarkId};

    #[test]
    fn kernel_stats_3d7pt() {
        let k = benchmark(BenchmarkId::S3d7ptStar).kernel();
        let s = KernelStats::of(&k, DType::F64);
        assert_eq!(s.points, 7);
        assert_eq!(s.read_bytes, 56);
        assert_eq!(s.write_bytes, 8);
        assert_eq!(s.ops(), 13); // 7 muls + 6 adds — matches Table 4
    }

    #[test]
    fn fp32_halves_traffic() {
        let k = benchmark(BenchmarkId::S3d7ptStar).kernel();
        let s64 = KernelStats::of(&k, DType::F64);
        let s32 = KernelStats::of(&k, DType::F32);
        assert_eq!(s32.read_bytes * 2, s64.read_bytes);
        assert_eq!(s32.ops(), s64.ops());
    }

    #[test]
    fn table4_read_bytes_for_all_benchmarks() {
        for b in all_benchmarks() {
            let s = KernelStats::of(&b.kernel(), DType::F64);
            assert_eq!(s.read_bytes, b.paper.read_bytes, "{}", b.name);
            assert_eq!(s.write_bytes, b.paper.write_bytes, "{}", b.name);
        }
    }

    #[test]
    fn naive_intensity_is_below_one_for_low_order() {
        let k = benchmark(BenchmarkId::S3d7ptStar).kernel();
        let s = KernelStats::of(&k, DType::F64);
        assert!(s.naive_intensity() < 1.0);
    }

    #[test]
    fn reuse_intensity_scales_with_order() {
        let lo = KernelStats::of(&benchmark(BenchmarkId::S3d7ptStar).kernel(), DType::F64);
        let hi = KernelStats::of(&benchmark(BenchmarkId::S2d169ptBox).kernel(), DType::F64);
        assert!(hi.reuse_intensity(DType::F64) > 10.0 * lo.reuse_intensity(DType::F64));
    }

    #[test]
    fn stencil_stats_double_kernel_traffic() {
        let b = benchmark(BenchmarkId::S3d7ptStar);
        let p = b.program(&[32, 32, 32], DType::F64, 2).unwrap();
        let ss = StencilStats::of(&p.stencil, DType::F64).unwrap();
        assert_eq!(ss.points, 14); // 7 per term, 2 terms
        assert_eq!(ss.read_bytes, 112);
        assert_eq!(ss.time_deps, 2);
        // ops: 2*(13) + 1 combine add + 2 weight muls = 29
        assert_eq!(ss.ops(), 29.0);
    }

    #[test]
    fn same_state_reads_across_terms_are_not_double_counted() {
        // Two distinct kernels at the same dt sharing two grid points:
        // the shared points load once per step, not once per term.
        use crate::expr::Expr;
        use crate::stencil::TimeTerm;
        let k1 = Kernel::new("a", 1, Expr::at("B", &[-1]) + Expr::at("B", &[0])).unwrap();
        let k2 = Kernel::new("b", 1, Expr::at("B", &[0]) + Expr::at("B", &[1])).unwrap();
        let st = Stencil::new(
            "overlap",
            vec![k1, k2],
            vec![
                TimeTerm {
                    dt: 1,
                    weight: 0.5,
                    kernel: "a".into(),
                },
                TimeTerm {
                    dt: 1,
                    weight: 0.5,
                    kernel: "b".into(),
                },
            ],
        )
        .unwrap();
        let ss = StencilStats::of(&st, DType::F64).unwrap();
        assert_eq!(ss.points, 3); // {-1, 0, 1}, previously 4
        assert_eq!(ss.read_bytes, 24);
        // Arithmetic is still per-term: 2 adds + 1 combine add + 2 weight muls.
        assert_eq!(ss.ops(), 5.0);
    }

    #[test]
    fn duplicate_syntactic_reads_in_one_kernel_count_once() {
        use crate::expr::Expr;
        let k = Kernel::new(
            "dup",
            1,
            Expr::at("B", &[1]) + 2.0 * Expr::at("B", &[1]) + Expr::at("B", &[0]),
        )
        .unwrap();
        let s = KernelStats::of(&k, DType::F64);
        assert_eq!(s.points, 2);
        assert_eq!(s.read_bytes, 16);
    }

    #[test]
    fn high_order_2d_is_compute_heavy_under_reuse() {
        // The mechanism behind "2d169pt is compute-bound on Sunway"
        // (Fig. 9a): with SPM reuse its DRAM intensity is huge.
        let b = benchmark(BenchmarkId::S2d169ptBox);
        let p = b.program(&[64, 64], DType::F64, 2).unwrap();
        let ss = StencilStats::of(&p.stencil, DType::F64).unwrap();
        assert!(ss.reuse_intensity(DType::F64) > 20.0);
    }
}
