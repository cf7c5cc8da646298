//! The specialized tier: one register-blocked row kernel for every
//! linear stencil, instantiated once per vector ISA and picked at run
//! time (DESIGN.md §12).
//!
//! A row is cut into blocks of `W` consecutive points, and a block's
//! accumulators stay in vector registers across all taps of all terms:
//!
//! ```text
//! o[0..W] = 0
//! for term:  acc[0..W] = 0
//!            for (off, c) in taps:  acc[j] = acc[j] + c * src[base + i + j + off]
//!            o[j] = o[j] + weight * acc[j]
//! out[i..i+W] = o
//! ```
//!
//! Per lane this is exactly `CompiledStencil::apply_at` — the same taps in
//! the same order, two roundings per multiply-add (Rust never contracts
//! `a + b * c` into an FMA, whatever ISA is enabled), the same `0 +
//! weight * acc` seed — so the tier is bit-identical to the interpreter
//! by construction. The `W / lanes` accumulator vectors are independent
//! add chains that hide the add latency, `out` is stored once per block,
//! and the tap count is an ordinary run-time loop bound: every stencil
//! has a kernel.
//!
//! Every kernel exists twice: as above, and with software prefetch of
//! each stream's leading edge (`prefetch_block`) for stencils whose step
//! streams more bytes than a cache keeps (`prefetch_pays`). Which one
//! runs is fixed when the [`RowKernel`] is made, so the plain loop carries
//! no trace of the other.
//!
//! The kernel body is safe code. The two `unsafe` in this module are the
//! call through the `#[target_feature]` wrapper in [`RowKernel::run_row`]
//! and the prefetch instruction in `prefetch_block`.

use crate::compiled::CompiledTerm;
use crate::grid::Scalar;
use std::mem::size_of;

/// Accumulator vectors per block: `W` is 16 / 32 / 64 f64 points on SSE2
/// / AVX2 / AVX-512 and twice that in f32. Eight was the fastest of 2, 4,
/// 8 and 16 on every ISA and both element types (table in DESIGN.md
/// §12.1); a row's tail goes through blocks of `W/2`, `W/4`, … 1.
const BLOCK_VECTORS: usize = 8;

/// How far ahead of the block being computed the prefetching kernels ask
/// for memory. 1-2 KiB was the fastest of 0.25-32 KiB on the 256^3 3d7pt
/// sweep (table in DESIGN.md §12.5): far enough to cover a DRAM access,
/// near enough that the line is still in L1/L2 when the block arrives.
const PREFETCH_AHEAD_BYTES: usize = 2048;

/// A step that streams at least this many bytes — `max_dt` states in, one
/// out — finds none of them in cache when the next step comes round, and
/// only then do the prefetches pay for their issue slots: 1.3x at 412 MB
/// and 1.17x at 105 MB, nothing at 53 MB and 25 MB, 5-10 % slower at
/// 7 MB and below (table in DESIGN.md §12.5).
pub(crate) const PREFETCH_MIN_STEP_BYTES: usize = 64 << 20;

/// The bytes one step streams: `max_dt` states of `padded_len` elements
/// of `T` in, one out.
pub(crate) fn step_bytes<T>(max_dt: usize, padded_len: usize) -> usize {
    max_dt
        .saturating_add(1)
        .saturating_mul(padded_len)
        .saturating_mul(size_of::<T>())
}

/// Whether a stencil reading `max_dt` states of `padded_len` elements of
/// `T` gets the prefetching kernels. Decided once per compiled stencil,
/// from sizes alone.
pub(crate) fn prefetch_pays<T>(max_dt: usize, padded_len: usize) -> bool {
    cfg!(all(target_arch = "x86_64", not(miri)))
        && step_bytes::<T>(max_dt, padded_len) >= PREFETCH_MIN_STEP_BYTES
}

/// Ask the memory system for the cache lines under the `W` elements
/// [`PREFETCH_AHEAD_BYTES`] past `block`. `block` may point anywhere, in
/// or out of an allocation: callers form it with `wrapping_add`.
#[inline(always)]
fn prefetch_block<T, const W: usize>(block: *const T) {
    let ahead = block.cast::<i8>().wrapping_add(PREFETCH_AHEAD_BYTES);
    for line in 0..W * size_of::<T>() / 64 {
        let p = ahead.wrapping_add(64 * line);
        // SAFETY: PREFETCHT0 is a hint. It is part of SSE, which every
        // x86-64 CPU has; it reads and writes no memory the program can
        // observe; and on an address that is unmapped, protected or past
        // the end of its buffer it does nothing at all — it cannot fault.
        // `p` is never dereferenced, so it need not point into anything.
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        unsafe {
            std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p)
        };
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        let _ = p;
    }
}

type KernelFn<T> = unsafe fn(&[CompiledTerm<T>], &[&[T]], usize, &mut [T]);

/// All whole `W`-point blocks of `out[i..]`; returns where it stopped.
/// With `PREFETCH`, a block of at least a cache line first asks for the
/// lines it will need [`PREFETCH_AHEAD_BYTES`] from now: under every
/// term's leading-edge tap, and under `out`.
#[inline(always)]
fn blocks<T: Scalar, const W: usize, const PREFETCH: bool>(
    terms: &[CompiledTerm<T>],
    states: &[&[T]],
    base: usize,
    out: &mut [T],
    mut i: usize,
) -> usize {
    while i + W <= out.len() {
        let at = (base + i) as isize;
        if PREFETCH {
            for term in terms {
                let src = states[term.dt - 1].as_ptr();
                prefetch_block::<T, W>(src.wrapping_offset(at + term.lead));
            }
            prefetch_block::<T, W>(out.as_ptr().wrapping_add(i));
        }
        let mut o = [T::default(); W];
        for term in terms {
            let src = states[term.dt - 1];
            let mut acc = [T::default(); W];
            for &(off, coeff) in &term.taps {
                let start = (at + off) as usize;
                // One bounds check per tap per block; the fixed-size view
                // is what lets the lane loop below become vector code.
                let lanes: &[T; W] = src[start..start + W]
                    .try_into()
                    .expect("slice has the block's length");
                for (a, &x) in acc.iter_mut().zip(lanes) {
                    *a = *a + coeff * x;
                }
            }
            for (o, &a) in o.iter_mut().zip(&acc) {
                *o = *o + term.weight * a;
            }
        }
        out[i..i + W].copy_from_slice(&o);
        i += W;
    }
    i
}

/// One row through blocks of `VECTOR_BYTES * BLOCK_VECTORS` bytes, then
/// ever narrower ones for the tail. Every `if` is decided at
/// monomorphization time.
#[inline(always)]
fn row<T: Scalar, const VECTOR_BYTES: usize, const PREFETCH: bool>(
    terms: &[CompiledTerm<T>],
    states: &[&[T]],
    base: usize,
    out: &mut [T],
) {
    let w = VECTOR_BYTES * BLOCK_VECTORS / size_of::<T>();
    let mut i = 0;
    if w >= 128 {
        i = blocks::<T, 128, PREFETCH>(terms, states, base, out, i);
    }
    if w >= 64 {
        i = blocks::<T, 64, PREFETCH>(terms, states, base, out, i);
    }
    if w >= 32 {
        i = blocks::<T, 32, PREFETCH>(terms, states, base, out, i);
    }
    if w >= 16 {
        i = blocks::<T, 16, PREFETCH>(terms, states, base, out, i);
    }
    i = blocks::<T, 8, PREFETCH>(terms, states, base, out, i);
    i = blocks::<T, 4, PREFETCH>(terms, states, base, out, i);
    i = blocks::<T, 2, PREFETCH>(terms, states, base, out, i);
    blocks::<T, 1, PREFETCH>(terms, states, base, out, i);
}

fn row_baseline<T: Scalar, const PREFETCH: bool>(
    terms: &[CompiledTerm<T>],
    states: &[&[T]],
    base: usize,
    out: &mut [T],
) {
    row::<T, 16, PREFETCH>(terms, states, base, out)
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
fn row_avx2<T: Scalar, const PREFETCH: bool>(
    terms: &[CompiledTerm<T>],
    states: &[&[T]],
    base: usize,
    out: &mut [T],
) {
    row::<T, 32, PREFETCH>(terms, states, base, out)
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512f")]
fn row_avx512<T: Scalar, const PREFETCH: bool>(
    terms: &[CompiledTerm<T>],
    states: &[&[T]],
    base: usize,
    out: &mut [T],
) {
    row::<T, 64, PREFETCH>(terms, states, base, out)
}

/// Every instantiation the running CPU can execute, narrowest first.
/// Baseline is whatever the crate is built for (SSE2 on x86-64) and the
/// only one under Miri and on other architectures.
fn detected_kernels<T: Scalar, const PREFETCH: bool>() -> Vec<(&'static str, KernelFn<T>)> {
    #[allow(unused_mut)]
    let mut kernels: Vec<(&str, KernelFn<T>)> = vec![("baseline", row_baseline::<T, PREFETCH>)];
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        if is_x86_feature_detected!("avx2") {
            kernels.push(("avx2", row_avx2::<T, PREFETCH>));
        }
        if is_x86_feature_detected!("avx512f") {
            kernels.push(("avx512f", row_avx512::<T, PREFETCH>));
        }
    }
    kernels
}

/// The blocked row kernel of one ISA, with or without prefetch.
pub struct RowKernel<T> {
    /// Invariant: the element of [`detected_kernels`] named `isa`.
    /// Private, and only this module's tests ever pick anything but the
    /// widest.
    run: KernelFn<T>,
    isa: &'static str,
    prefetch: bool,
}

impl<T: Scalar> RowKernel<T> {
    /// The kernel of the widest ISA the running CPU has; `prefetch` is
    /// what `prefetch_pays` said about the buffers it will read.
    pub fn widest(prefetch: bool) -> RowKernel<T> {
        let mut kernels = if prefetch {
            detected_kernels::<T, true>()
        } else {
            detected_kernels::<T, false>()
        };
        let (isa, run) = kernels.pop().expect("baseline is always there");
        RowKernel { run, isa, prefetch }
    }

    /// The vector ISA the kernel was instantiated for: `baseline`, `avx2`
    /// or `avx512f`.
    pub fn isa(&self) -> &'static str {
        self.isa
    }

    /// Whether this is the prefetching instantiation.
    pub fn prefetch(&self) -> bool {
        self.prefetch
    }

    /// Evaluate a unit-stride row of the stencil `terms`: `out[i]` gets
    /// the update of the point at flat index `base + i`, where
    /// `states[dt - 1]` is the state `dt` steps back. Bit-identical to
    /// calling `CompiledStencil::apply_at` per point.
    #[inline]
    pub fn run_row(&self, terms: &[CompiledTerm<T>], states: &[&[T]], base: usize, out: &mut [T]) {
        // SAFETY: the kernels are safe functions whose only obligation is
        // that the CPU supports their `#[target_feature]`; `run` only
        // ever holds an element of `detected_kernels`, which lists a
        // kernel after detecting exactly that feature.
        unsafe { (self.run)(terms, states, base, out) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::{leading_edge, CompiledStencil};
    use crate::grid::Grid;
    use msc_core::catalog::{benchmark, BenchmarkId};
    use msc_core::prelude::*;
    use proptest::prelude::*;

    /// `(dt, weight, taps)`.
    type Term = (usize, f64, Vec<(isize, f64)>);

    /// The widest block any ISA uses for `T`, in points.
    fn widest_block<T>() -> usize {
        64 * BLOCK_VECTORS / std::mem::size_of::<T>()
    }

    fn stencil_1d<T: Scalar>(terms: Vec<Term>) -> CompiledStencil<T> {
        let terms = terms
            .into_iter()
            .map(|(dt, weight, taps)| CompiledTerm {
                dt,
                weight: T::from_f64(weight),
                lead: leading_edge(&taps),
                taps: taps.into_iter().map(|(o, k)| (o, T::from_f64(k))).collect(),
                taps_nd: Vec::new(),
            })
            .collect();
        CompiledStencil::from_terms(terms)
    }

    /// The detected kernels, plain and prefetching, or only the baseline
    /// pair: an AVX host still runs the SSE2 instantiation when the test
    /// asks for it.
    fn kernels<T: Scalar>(baseline_only: bool) -> Vec<RowKernel<T>> {
        let mut kernels = Vec::new();
        for (prefetch, detected) in [
            (false, detected_kernels::<T, false>()),
            (true, detected_kernels::<T, true>()),
        ] {
            assert_eq!(detected[0].0, "baseline");
            let n = if baseline_only { 1 } else { detected.len() };
            let picked = detected.into_iter().take(n);
            kernels.extend(picked.map(|(isa, run)| RowKernel { run, isa, prefetch }));
        }
        kernels
    }

    /// Rows of every length `1..=2W+1` through each kernel under test,
    /// every point compared bit for bit with `apply_at`. The leading tap
    /// of the longest row's last point reads the final element of every
    /// state buffer, and `out` is exactly the row, so the prefetches of the
    /// last blocks aim past every allocation.
    fn check_rows<T: Scalar>(terms: &[Term], baseline_only: bool, seed: u64) {
        let c = stencil_1d::<T>(terms.to_vec());
        let reach = REACH as usize;
        let max_len = 2 * widest_block::<T>() + 1;
        let states: Vec<Grid<T>> = (0..c.max_dt)
            .map(|s| {
                let readers = c.terms.iter().filter(|t| t.dt == s + 1);
                let lead = readers.map(|t| t.lead.max(0) as usize).max().unwrap_or(0);
                Grid::random(&[reach + 1 + max_len + lead], &[0], seed + s as u64)
            })
            .collect();
        let states: Vec<&[T]> = states.iter().map(|g| g.as_slice()).collect();
        for kernel in kernels::<T>(baseline_only) {
            for len in 1..=max_len {
                // Odd bases too: nothing may depend on alignment.
                let base = reach + (len & 1);
                let mut row = vec![T::from_f64(f64::NAN); len];
                kernel.run_row(&c.terms, &states, base, &mut row);
                for (i, got) in row.iter().enumerate() {
                    let want = c.apply_at(&states, base + i);
                    assert_eq!(
                        got.to_f64().to_bits(),
                        want.to_f64().to_bits(),
                        "{} prefetch {}: {} taps, row of {len}, point {i}",
                        kernel.isa(),
                        kernel.prefetch(),
                        c.terms[0].taps.len()
                    );
                }
            }
        }
    }

    const REACH: isize = 100;

    /// `(weight, taps)` of one term with exactly `n_taps` taps.
    fn term_of(n_taps: usize) -> impl Strategy<Value = (f64, Vec<(isize, f64)>)> {
        let tap = (-REACH..=REACH, -1.0f64..1.0);
        (-2.0f64..2.0, prop::collection::vec(tap, n_taps))
    }

    /// One to three terms reading successive time slots; the first has
    /// `first_taps` taps, the others 1–200.
    fn stencil_of(first_taps: usize) -> impl Strategy<Value = Vec<Term>> {
        let more = prop::collection::vec((1usize..=200).prop_flat_map(term_of), 0..=2);
        (term_of(first_taps), more).prop_map(|(first, more)| {
            std::iter::once(first)
                .chain(more)
                .enumerate()
                .map(|(k, (weight, taps))| (k + 1, weight, taps))
                .collect()
        })
    }

    fn kernel_matches_apply_at(baseline_only: bool, test_path: &str) {
        let check = |(terms, seed): (Vec<Term>, u64)| {
            check_rows::<f64>(&terms, baseline_only, seed);
            check_rows::<f32>(&terms, baseline_only, seed);
        };
        let config = ProptestConfig::with_cases(8);
        let random = ((1usize..=200).prop_flat_map(stencil_of), 0u64..1 << 32);
        proptest::run_cases(test_path, &config, &random, check);
        // Tap counts no catalog stencil has, every run.
        for n_taps in [10, 12, 50, 122] {
            let fixed = (stencil_of(n_taps), 0u64..1 << 32);
            proptest::run_cases(test_path, &ProptestConfig::with_cases(1), &fixed, check);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // hundreds of rows x hundreds of taps
    fn blocked_kernel_matches_apply_at_on_every_detected_isa() {
        kernel_matches_apply_at(false, "specialized::every_detected_isa");
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn blocked_kernel_matches_apply_at_forced_baseline() {
        kernel_matches_apply_at(true, "specialized::forced_baseline");
    }

    #[test]
    fn zero_seeds_survive_negative_zero_products() {
        // Every product is -0.0 (negative coefficient × +0.0). The
        // interpreter's `0 + c*x` and `0 + w*acc` seeds turn that into
        // +0.0; a kernel that started a chain from its first product
        // would leave -0.0, which the benchmark oracle tells apart.
        for weights in [[-0.5, -0.25], [0.5, 0.25], [-0.5, 0.25]] {
            let terms = weights
                .iter()
                .enumerate()
                .map(|(k, &w)| (k + 1, w, vec![(-1, -0.25), (0, -0.5), (1, -0.25)]))
                .collect();
            let c = stencil_1d::<f64>(terms);
            let zeros = vec![0.0f64; 3 * widest_block::<f64>()];
            let states = [zeros.as_slice(), zeros.as_slice()];
            for kernel in kernels::<f64>(false) {
                let mut row = vec![f64::NAN; zeros.len() - 2];
                kernel.run_row(&c.terms, &states, 1, &mut row);
                for (i, got) in row.iter().enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        0.0f64.to_bits(),
                        "{} point {i}",
                        kernel.isa()
                    );
                    assert_eq!(got.to_bits(), c.apply_at(&states, 1 + i).to_bits());
                }
            }
        }
    }

    #[test]
    fn widest_kernel_matches_apply_at_on_a_grid_row() {
        let p = benchmark(BenchmarkId::S3d7ptStar)
            .program(&[12, 10, 16], DType::F64, 2)
            .unwrap();
        let a: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 41);
        let b: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 42);
        let c = CompiledStencil::compile(&p, &a).unwrap();
        let states = [a.as_slice(), b.as_slice()];
        let base = a.layout().index(&[5, 4, 0]);
        let mut row = vec![0.0; 16];
        for prefetch in [false, true] {
            let kernel = RowKernel::widest(prefetch);
            assert_eq!(kernel.prefetch(), prefetch);
            kernel.run_row(&c.terms, &states, base, &mut row);
            for (i, &got) in row.iter().enumerate() {
                let want = c.apply_at(&states, base + i);
                assert_eq!(got.to_bits(), want.to_bits(), "point {i}");
            }
            row.fill(0.0);
        }
    }

    #[test]
    fn prefetch_is_decided_from_the_bytes_a_step_streams() {
        let on = cfg!(all(target_arch = "x86_64", not(miri)));
        // stream3d: three 137 MB slots of 258^3 f64, from sizes alone.
        assert_eq!(prefetch_pays::<f64>(2, 258 * 258 * 258), on);
        assert_eq!(prefetch_pays::<f32>(2, 258 * 258 * 258), on);
        // One byte under the line, and on it.
        let line = PREFETCH_MIN_STEP_BYTES / 8 / 2;
        assert!(!prefetch_pays::<f64>(1, line - 1));
        assert_eq!(prefetch_pays::<f64>(1, line), on);
        // 16^3, halo2r's 64^3, dense2d's 1024^2 halo 5, 128^3: cache-resident.
        for padded_len in [18 * 18 * 18, 66 * 66 * 66, 1034 * 1034, 130 * 130 * 130] {
            assert!(!prefetch_pays::<f64>(2, padded_len), "{padded_len}");
        }
        assert!(!prefetch_pays::<f64>(usize::MAX, 0));
    }
}
