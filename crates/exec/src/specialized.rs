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
//! A dense one-term stencil can also go [`ROWS`] rows at a time
//! ([`RowKernel::run_rows`]): neighbouring rows read mostly the same
//! vectors, so a [`RowBlock`] merges the rows' tap lists into one list of
//! loads, and each loaded vector is multiplied into every row that reads
//! it. Each row still meets its own taps in its own order. A kernel-image
//! step (DESIGN.md §12.6) goes through a third entry,
//! [`RowKernel::run_image_rows`]: the kernel, then an elementwise pass.
//!
//! The kernel body is safe code. The two `unsafe` in this module are the
//! call through the `#[target_feature]` wrapper in `RowKernel::call` and
//! the prefetch instruction in `prefetch_block`.

use crate::compiled::CompiledTerm;
use crate::grid::Scalar;
use std::mem::size_of;

/// Accumulator vectors per block: `W` is 16 / 32 / 64 f64 points on SSE2
/// / AVX2 / AVX-512 and twice that in f32. Eight was the fastest of 2, 4,
/// 8 and 16 on every ISA and both element types (table in DESIGN.md
/// §12.1); a row's tail goes through blocks of `W/2`, `W/4`, … 1.
const BLOCK_VECTORS: usize = 8;

/// Vectors per chunk of a combination of kernel images. A chunk of
/// `BLOCK_VECTORS` is more accumulators than LLVM keeps in registers
/// across the run-time term loop: it spilled them and ran slower than
/// the row copy it replaced; 4 vectors beat 2 (DESIGN.md §12.6).
const COMBINE_VECTORS: usize = 4;

/// The most terms a combination of kernel images may have: what a step
/// reads per row is gathered on the stack.
pub(crate) const MAX_IMAGE_TERMS: usize = 8;

/// Output rows one [`RowKernel::run_rows`] call evaluates. The rows share
/// the `BLOCK_VECTORS` accumulator vectors, two per row, and every vector
/// loaded is used by each row that reads it. On the 121-tap box four rows
/// read 1.23x one row and level with two (table in DESIGN.md §12.1).
pub(crate) const ROWS: usize = 4;

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

type RowFn<T> = unsafe fn(&[CompiledTerm<T>], &[&[T]], usize, &mut [T]);
type RowsFn<T> = unsafe fn(&RowBlock<T>, &[&[T]], usize, &mut [&mut [T]]);
type ImageFn<T> = unsafe fn(&ImageStep<'_, T>, usize, &mut [&mut [T]], &mut [&mut [T]]);

/// What one call through a [`RowKernel`] evaluates.
enum Call<'a, 'b, T> {
    /// One row of any stencil.
    Row {
        terms: &'a [CompiledTerm<T>],
        states: &'a [&'a [T]],
        base: usize,
        out: &'a mut [T],
    },
    /// One to [`ROWS`] rows of one term, `block.stride` apart.
    Rows {
        block: &'a RowBlock<T>,
        states: &'a [&'a [T]],
        base: usize,
        outs: &'a mut [&'b mut [T]],
    },
    /// One to [`ROWS`] rows of a kernel-image step.
    Image {
        step: &'a ImageStep<'a, T>,
        base: usize,
        fresh: &'a mut [&'b mut [T]],
        next: &'a mut [&'b mut [T]],
    },
}

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

/// One term of a combined row: its weight and the image row it reads,
/// `None` for the output row itself.
type ImageTerm<'a, T> = (T, Option<&'a [T]>);

/// All whole `W`-point chunks of `out[i..]` combined from `terms`; returns
/// where it stopped. Per lane `o = o + weight * (0 + 1 * image)` from
/// `o = 0`, in term order: `apply_at` over 1-tap terms. The output row's
/// own chunk is read as the dying image before it is stored.
#[inline(always)]
fn combine_blocks<T: Scalar, const W: usize>(terms: &[ImageTerm<'_, T>], out: &mut [T], i: usize) -> usize {
    let (one, len) = (T::from_f64(1.0), out.len());
    let mut chunks = out[i..].chunks_exact_mut(W);
    for (at, chunk) in (i..).step_by(W).zip(&mut chunks) {
        let chunk: &mut [T; W] = chunk.try_into().expect("chunk has the block's length");
        let mut o = [T::default(); W];
        for &(weight, image) in terms {
            let lanes: &[T; W] = match image {
                Some(image) => image[at..at + W].try_into().expect("slice has the block's length"),
                None => chunk,
            };
            for (o, &x) in o.iter_mut().zip(lanes) {
                *o = *o + weight * (T::default() + one * x);
            }
        }
        *chunk = o;
    }
    len - chunks.into_remainder().len()
}

/// One combined row through chunks of `COMBINE_VECTORS` vectors (8 to 64
/// points), then narrower ones and single points for the tail.
#[inline(always)]
fn combine<T: Scalar, const VECTOR_BYTES: usize>(terms: &[ImageTerm<'_, T>], out: &mut [T]) {
    let w = VECTOR_BYTES * COMBINE_VECTORS / size_of::<T>();
    let mut i = 0;
    if w >= 64 {
        i = combine_blocks::<T, 64>(terms, out, i);
    }
    if w >= 32 {
        i = combine_blocks::<T, 32>(terms, out, i);
    }
    if w >= 16 {
        i = combine_blocks::<T, 16>(terms, out, i);
    }
    i = combine_blocks::<T, 8>(terms, out, i);
    combine_blocks::<T, 1>(terms, out, i);
}

/// Where a combination of kernel images finds the image a term reads
/// (DESIGN.md §12.6).
pub(crate) enum ImageOf<'a, T> {
    /// The image this step computes: the row the kernel just evaluated.
    Fresh,
    /// The oldest image, which the new state overwrites in place.
    Dying,
    /// The image held by another window slot.
    Held(&'a [T]),
}

/// The kernel a kernel-image step sweeps before it combines.
pub(crate) enum ImageKernel<'a, T> {
    /// One row at a time, of these terms.
    Row(&'a [CompiledTerm<T>]),
    /// [`ROWS`] rows at a time, through this block.
    Rows(&'a RowBlock<T>),
    /// Another tier has evaluated it already.
    Done,
}

/// One kernel-image step over a group of rows `stride` apart: the kernel
/// over `states` into the rows of the fresh image, then each row of the
/// new state combined from `images`, weights in the program's term order.
pub(crate) struct ImageStep<'a, T> {
    pub kernel: ImageKernel<'a, T>,
    pub states: &'a [&'a [T]],
    pub stride: usize,
    pub images: &'a [(T, ImageOf<'a, T>)],
}

/// [`ImageStep`] over the rows at `base`, `base + stride`, …: `fresh[r]`
/// gets the kernel's row, `next[r]` the combination. A dying image is
/// read from `next[r]` itself, chunk by chunk, before it is overwritten.
#[inline(always)]
fn image_rows<T: Scalar, const VECTOR_BYTES: usize, const PREFETCH: bool>(
    step: &ImageStep<'_, T>,
    base: usize,
    fresh: &mut [&mut [T]],
    next: &mut [&mut [T]],
) {
    match step.kernel {
        ImageKernel::Row(terms) => {
            for (r, out) in fresh.iter_mut().enumerate() {
                row::<T, VECTOR_BYTES, PREFETCH>(terms, step.states, base + r * step.stride, out);
            }
        }
        ImageKernel::Rows(block) => rows::<T, VECTOR_BYTES>(block, step.states, base, fresh),
        ImageKernel::Done => {}
    }
    for (r, (fresh, next)) in fresh.iter().zip(next.iter_mut()).enumerate() {
        let at = base + r * step.stride;
        let mut terms: [ImageTerm<'_, T>; MAX_IMAGE_TERMS] = [(T::default(), None); MAX_IMAGE_TERMS];
        for (term, (weight, of)) in terms.iter_mut().zip(step.images) {
            *term = match of {
                ImageOf::Fresh => (*weight, Some(&**fresh)),
                ImageOf::Dying => (*weight, None),
                ImageOf::Held(grid) => (*weight, Some(&grid[at..at + next.len()])),
            };
        }
        combine::<T, VECTOR_BYTES>(&terms[..step.images.len()], next);
    }
}

/// One vector load of a [`RowBlock`]: the `W` points `off` past the
/// block's lowest address, multiplied by `coeffs[r]` into each row `r` of
/// its segment.
#[derive(Debug, Clone)]
struct Load<T> {
    off: usize,
    coeffs: [T; ROWS],
}

/// A run of a [`RowBlock`]'s loads, up to (not including) `end`, each
/// read by exactly the rows `lo..hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    lo: usize,
    hi: usize,
    end: usize,
}

/// One term over [`ROWS`] rows `stride` apart: the merge of `ROWS` copies
/// of its tap list, copy `r` shifted by `r * stride`. The merge takes the
/// lowest address among the copies' heads, loads it once for the
/// consecutive rows whose heads name it, and advances those heads. So each
/// copy is consumed in its own order, and every row runs `apply_at`'s
/// sequence for its point, duplicates and unordered taps included.
#[derive(Debug, Clone)]
pub(crate) struct RowBlock<T> {
    dt: usize,
    weight: T,
    stride: usize,
    /// The lowest address any row reads, from the first row's point:
    /// every load's `off` counts from it.
    low: isize,
    loads: Vec<Load<T>>,
    segments: Vec<Segment>,
}

impl<T: Scalar> RowBlock<T> {
    pub(crate) fn merge(term: &CompiledTerm<T>, stride: usize) -> RowBlock<T> {
        let taps = &term.taps;
        let mut heads = [0; ROWS];
        let head = |heads: &[usize; ROWS], r: usize| {
            taps.get(heads[r]).map(|tap| tap.0 + (r * stride) as isize)
        };
        let mut block = RowBlock {
            dt: term.dt,
            weight: term.weight,
            stride,
            low: taps.iter().map(|tap| tap.0).min().unwrap_or(0),
            loads: Vec::with_capacity(ROWS * taps.len()),
            segments: Vec::new(),
        };
        while let Some(off) = (0..ROWS).filter_map(|r| head(&heads, r)).min() {
            let mut r = 0;
            while r < ROWS {
                let (lo, mut coeffs) = (r, [T::default(); ROWS]);
                while r < ROWS && head(&heads, r) == Some(off) {
                    coeffs[r] = taps[heads[r]].1;
                    heads[r] += 1;
                    r += 1;
                }
                if r > lo {
                    let off = (off - block.low) as usize;
                    block.push(Load { off, coeffs }, lo, r);
                } else {
                    r += 1;
                }
            }
        }
        block
    }

    fn push(&mut self, load: Load<T>, lo: usize, hi: usize) {
        self.loads.push(load);
        let end = self.loads.len();
        match self.segments.last_mut() {
            Some(last) if (last.lo, last.hi) == (lo, hi) => last.end = end,
            _ => self.segments.push(Segment { lo, hi, end }),
        }
    }

    /// Vector loads per block of the schedule.
    #[cfg(test)]
    pub(crate) fn loads(&self) -> usize {
        self.loads.len()
    }

    /// Loads that every one of the `ROWS` rows reads: each serves one tap
    /// of every row.
    pub(crate) fn shared(&self) -> usize {
        let mut from = 0;
        let mut shared = 0;
        for seg in &self.segments {
            if (seg.lo, seg.hi) == (0, ROWS) {
                shared += seg.end - from;
            }
            from = seg.end;
        }
        shared
    }

    #[cfg(test)]
    pub(crate) fn segments(&self) -> usize {
        self.segments.len()
    }

    /// The distance between the rows the block was merged for.
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }
}

/// The loads of one segment into rows `LO..HI` of a block's accumulators,
/// read from `window`, which starts at the block's lowest address.
#[inline(always)]
fn segment<T: Scalar, const W: usize, const LO: usize, const HI: usize>(
    loads: &[Load<T>],
    window: &[T],
    acc: &mut [[T; W]; ROWS],
) {
    // One name per row (`ROWS` is 4), and every `if` decided at
    // monomorphization time: no accumulator is indexed by a run-time row.
    let reads = |r: usize| LO <= r && r < HI;
    let [mut a0, mut a1, mut a2, mut a3] = *acc;
    for load in loads {
        let lanes: &[T; W] = window[load.off..load.off + W]
            .try_into()
            .expect("slice has the block's length");
        let c = &load.coeffs;
        if reads(0) {
            multiply_add(&mut a0, c[0], lanes);
        }
        if reads(1) {
            multiply_add(&mut a1, c[1], lanes);
        }
        if reads(2) {
            multiply_add(&mut a2, c[2], lanes);
        }
        if reads(3) {
            multiply_add(&mut a3, c[3], lanes);
        }
    }
    *acc = [a0, a1, a2, a3];
}

/// `acc[j] = acc[j] + coeff * lanes[j]`: one tap of one row.
#[inline(always)]
fn multiply_add<T: Scalar, const W: usize>(acc: &mut [T; W], coeff: T, lanes: &[T; W]) {
    for (a, &x) in acc.iter_mut().zip(lanes) {
        *a = *a + coeff * x;
    }
}

/// All whole `W`-point blocks of the rows `outs` from `i` on; returns
/// where it stopped. A group of fewer than `ROWS` rows skips the rows it
/// does not have: the ones it has still meet their taps in order.
#[inline(always)]
fn group_blocks<T: Scalar, const W: usize>(
    block: &RowBlock<T>,
    src: &[T],
    base: usize,
    outs: &mut [&mut [T]],
    mut i: usize,
) -> usize {
    let (len, rows) = (outs[0].len(), outs.len());
    while i + W <= len {
        let window = &src[((base + i) as isize + block.low) as usize..];
        let mut acc = [[T::default(); W]; ROWS];
        // Between segments the accumulators live in memory, each segment
        // holding its rows' in registers: left to itself the optimizer
        // splits them into scalars across the segment dispatch, and the
        // kernel runs 3x slower.
        std::hint::black_box(&mut acc);
        let mut from = 0;
        for seg in &block.segments {
            let loads = &block.loads[from..seg.end];
            from = seg.end;
            match (seg.lo, seg.hi.min(rows)) {
                (0, 1) => segment::<T, W, 0, 1>(loads, window, &mut acc),
                (0, 2) => segment::<T, W, 0, 2>(loads, window, &mut acc),
                (0, 3) => segment::<T, W, 0, 3>(loads, window, &mut acc),
                (0, 4) => segment::<T, W, 0, 4>(loads, window, &mut acc),
                (1, 2) => segment::<T, W, 1, 2>(loads, window, &mut acc),
                (1, 3) => segment::<T, W, 1, 3>(loads, window, &mut acc),
                (1, 4) => segment::<T, W, 1, 4>(loads, window, &mut acc),
                (2, 3) => segment::<T, W, 2, 3>(loads, window, &mut acc),
                (2, 4) => segment::<T, W, 2, 4>(loads, window, &mut acc),
                (3, 4) => segment::<T, W, 3, 4>(loads, window, &mut acc),
                (lo, hi) => debug_assert!(lo >= hi, "no row range {lo}..{hi} of {ROWS}"),
            }
        }
        for (out, acc) in outs.iter_mut().zip(&acc) {
            for (o, &a) in out[i..i + W].iter_mut().zip(acc) {
                *o = T::default() + block.weight * a;
            }
        }
        i += W;
    }
    i
}

/// A group of rows through blocks of `BLOCK_VECTORS / ROWS` vectors per
/// row, then ever narrower ones for the tail.
#[inline(always)]
fn rows<T: Scalar, const VECTOR_BYTES: usize>(
    block: &RowBlock<T>,
    states: &[&[T]],
    base: usize,
    outs: &mut [&mut [T]],
) {
    let w = VECTOR_BYTES * BLOCK_VECTORS / ROWS / size_of::<T>();
    let src = states[block.dt - 1];
    let mut i = 0;
    if w >= 32 {
        i = group_blocks::<T, 32>(block, src, base, outs, i);
    }
    if w >= 16 {
        i = group_blocks::<T, 16>(block, src, base, outs, i);
    }
    if w >= 8 {
        i = group_blocks::<T, 8>(block, src, base, outs, i);
    }
    i = group_blocks::<T, 4>(block, src, base, outs, i);
    i = group_blocks::<T, 2>(block, src, base, outs, i);
    group_blocks::<T, 1>(block, src, base, outs, i);
}

fn row_baseline<T: Scalar, const PREFETCH: bool>(
    terms: &[CompiledTerm<T>],
    states: &[&[T]],
    base: usize,
    out: &mut [T],
) {
    row::<T, 16, PREFETCH>(terms, states, base, out)
}

fn rows_baseline<T: Scalar>(
    block: &RowBlock<T>,
    states: &[&[T]],
    base: usize,
    outs: &mut [&mut [T]],
) {
    rows::<T, 16>(block, states, base, outs)
}

fn image_rows_baseline<T: Scalar, const PREFETCH: bool>(
    step: &ImageStep<'_, T>,
    base: usize,
    fresh: &mut [&mut [T]],
    next: &mut [&mut [T]],
) {
    image_rows::<T, 16, PREFETCH>(step, base, fresh, next)
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
#[target_feature(enable = "avx2")]
fn rows_avx2<T: Scalar>(block: &RowBlock<T>, states: &[&[T]], base: usize, outs: &mut [&mut [T]]) {
    rows::<T, 32>(block, states, base, outs)
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
fn image_rows_avx2<T: Scalar, const PREFETCH: bool>(
    step: &ImageStep<'_, T>,
    base: usize,
    fresh: &mut [&mut [T]],
    next: &mut [&mut [T]],
) {
    image_rows::<T, 32, PREFETCH>(step, base, fresh, next)
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

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512f")]
fn rows_avx512<T: Scalar>(
    block: &RowBlock<T>,
    states: &[&[T]],
    base: usize,
    outs: &mut [&mut [T]],
) {
    rows::<T, 64>(block, states, base, outs)
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512f")]
fn image_rows_avx512<T: Scalar, const PREFETCH: bool>(
    step: &ImageStep<'_, T>,
    base: usize,
    fresh: &mut [&mut [T]],
    next: &mut [&mut [T]],
) {
    image_rows::<T, 64, PREFETCH>(step, base, fresh, next)
}

/// Every instantiation the running CPU can execute, narrowest first.
/// Baseline is whatever the crate is built for (SSE2 on x86-64) and the
/// only one under Miri and on other architectures.
#[allow(clippy::type_complexity)]
fn detected_kernels<T: Scalar, const PREFETCH: bool>(
) -> Vec<(&'static str, RowFn<T>, RowsFn<T>, ImageFn<T>)> {
    #[allow(unused_mut)]
    let mut kernels: Vec<(&str, RowFn<T>, RowsFn<T>, ImageFn<T>)> = vec![(
        "baseline",
        row_baseline::<T, PREFETCH>,
        rows_baseline::<T>,
        image_rows_baseline::<T, PREFETCH>,
    )];
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        if is_x86_feature_detected!("avx2") {
            kernels.push(("avx2", row_avx2::<T, PREFETCH>, rows_avx2::<T>, image_rows_avx2::<T, PREFETCH>));
        }
        if is_x86_feature_detected!("avx512f") {
            kernels.push((
                "avx512f",
                row_avx512::<T, PREFETCH>,
                rows_avx512::<T>,
                image_rows_avx512::<T, PREFETCH>,
            ));
        }
    }
    kernels
}

/// The blocked row kernel of one ISA, with or without prefetch.
pub struct RowKernel<T> {
    /// Invariant: the three functions of the element of
    /// [`detected_kernels`] named `isa`. Private, and only this module's
    /// tests ever pick anything but the widest.
    row: RowFn<T>,
    rows: RowsFn<T>,
    image: ImageFn<T>,
    isa: &'static str,
    prefetch: bool,
}

impl<T: Scalar> RowKernel<T> {
    /// The kernel of the widest ISA the running CPU has; `prefetch` is
    /// what `prefetch_pays` said about the buffers it will read.
    pub(crate) fn widest(prefetch: bool) -> RowKernel<T> {
        let mut kernels = if prefetch {
            detected_kernels::<T, true>()
        } else {
            detected_kernels::<T, false>()
        };
        let (isa, row, rows, image) = kernels.pop().expect("baseline is always there");
        RowKernel {
            row,
            rows,
            image,
            isa,
            prefetch,
        }
    }

    /// The baseline instantiation, whatever the CPU has.
    #[cfg(test)]
    pub(crate) fn baseline(prefetch: bool) -> RowKernel<T> {
        let (isa, row, rows, image) = match prefetch {
            true => detected_kernels::<T, true>().swap_remove(0),
            false => detected_kernels::<T, false>().swap_remove(0),
        };
        RowKernel {
            row,
            rows,
            image,
            isa,
            prefetch,
        }
    }

    /// The vector ISA the kernel was instantiated for: `baseline`, `avx2`
    /// or `avx512f`.
    pub(crate) fn isa(&self) -> &'static str {
        self.isa
    }

    /// Whether this is the prefetching instantiation.
    pub(crate) fn prefetch(&self) -> bool {
        self.prefetch
    }

    /// How many bytes of each row a block of [`RowKernel::run_rows`]
    /// holds: `BLOCK_VECTORS / ROWS` vectors of the ISA.
    pub(crate) fn block_row_bytes(&self) -> usize {
        let vector_bytes = match self.isa {
            "avx512f" => 64,
            "avx2" => 32,
            _ => 16,
        };
        vector_bytes * BLOCK_VECTORS / ROWS
    }

    /// Evaluate a unit-stride row of the stencil `terms`: `out[i]` gets
    /// the update of the point at flat index `base + i`, where
    /// `states[dt - 1]` is the state `dt` steps back. Bit-identical to
    /// calling `CompiledStencil::apply_at` per point.
    #[inline]
    pub(crate) fn run_row(&self, terms: &[CompiledTerm<T>], states: &[&[T]], base: usize, out: &mut [T]) {
        self.call(Call::Row {
            terms,
            states,
            base,
            out,
        })
    }

    /// Evaluate one to [`ROWS`] rows of one length through `block`:
    /// `outs[r][i]` gets the update of the point at flat index `base + r *
    /// block.stride() + i`. Bit-identical to calling
    /// `CompiledStencil::apply_at` on the block's term per point.
    #[inline]
    pub(crate) fn run_rows(
        &self,
        block: &RowBlock<T>,
        states: &[&[T]],
        base: usize,
        outs: &mut [&mut [T]],
    ) {
        let len = outs[0].len();
        assert!(
            outs.len() <= ROWS && outs.iter().all(|out| out.len() == len),
            "a block evaluates 1 to {ROWS} rows of one length"
        );
        self.call(Call::Rows {
            block,
            states,
            base,
            outs,
        })
    }

    /// One to [`ROWS`] rows of one length of a kernel-image step, the rows
    /// of `fresh` and `next` at flat index `base + r * step.stride`:
    /// `next[r][i]` gets `apply_at` of the stencil whose term `k` has
    /// weight `step.images[k].0` and the one tap `1 * image[i]`, a dying
    /// image being `next[r]` as it was before the call (DESIGN.md §12.6).
    #[inline]
    pub(crate) fn run_image_rows<'r>(
        &self,
        step: &ImageStep<'_, T>,
        base: usize,
        fresh: &mut [&'r mut [T]],
        next: &mut [&'r mut [T]],
    ) {
        let len = fresh[0].len();
        assert!(
            fresh.len() <= ROWS
                && next.len() == fresh.len()
                && step.images.len() <= MAX_IMAGE_TERMS
                && fresh.iter().chain(next.iter()).all(|row| row.len() == len),
            "a step evaluates 1 to {ROWS} rows of one length, of at most {MAX_IMAGE_TERMS} terms"
        );
        self.call(Call::Image {
            step,
            base,
            fresh,
            next,
        })
    }

    #[inline(always)]
    fn call(&self, call: Call<'_, '_, T>) {
        // SAFETY: the kernels are safe functions whose only obligation is
        // that the CPU supports their `#[target_feature]`; `row`, `rows`
        // and `image` only ever hold the functions of an element of
        // `detected_kernels`, which lists them after detecting exactly
        // that feature.
        unsafe {
            match call {
                Call::Row {
                    terms,
                    states,
                    base,
                    out,
                } => (self.row)(terms, states, base, out),
                Call::Rows {
                    block,
                    states,
                    base,
                    outs,
                } => (self.rows)(block, states, base, outs),
                Call::Image {
                    step,
                    base,
                    fresh,
                    next,
                } => (self.image)(step, base, fresh, next),
            }
        }
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
            kernels.extend(picked.map(|(isa, row, rows, image)| RowKernel {
                row,
                rows,
                image,
                isa,
                prefetch,
            }));
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

    /// How far a block test's taps reach: rows up and down, points left
    /// and right.
    const BLOCK_DY: isize = 3;
    const BLOCK_DX: isize = 8;

    /// `(weight, taps)` of one term of 1–200 taps at `(dy, dx)`, in no
    /// order and mostly with duplicates: 119 offsets to draw from.
    type BlockTerm = (f64, Vec<((isize, isize), f64)>);

    fn block_term() -> impl Strategy<Value = BlockTerm> {
        let tap = ((-BLOCK_DY..=BLOCK_DY, -BLOCK_DX..=BLOCK_DX), -1.0f64..1.0);
        (-2.0f64..2.0, prop::collection::vec(tap, 1..=200))
    }

    /// Groups of 1 to `ROWS` rows of every length `1..=2W+1`, `W` the
    /// widest ISA's block row, through `RowBlock`s merged for rows
    /// `stride` apart, on each plain kernel under test: every point of
    /// every row compared bit for bit with `apply_at`.
    fn check_blocks<T: Scalar>(term: &BlockTerm, stride: usize, baseline_only: bool, seed: u64) {
        let max_len = 2 * widest_block::<T>() / ROWS + 1;
        let stride = max_len + stride;
        let (weight, taps) = term;
        let linear = taps
            .iter()
            .map(|&((dy, dx), c)| (dy * stride as isize + dx, c))
            .collect();
        let c = stencil_1d::<T>(vec![(1, *weight, linear)]);
        let block = RowBlock::merge(&c.terms[0], stride);
        let (dy, dx) = (BLOCK_DY as usize, BLOCK_DX as usize);
        let first = dy * stride + dx;
        let end = first + (ROWS - 1 + dy) * stride + max_len + dx + 1;
        let state: Grid<T> = Grid::random(&[end], &[0], seed);
        let states = [state.as_slice()];
        for kernel in kernels::<T>(baseline_only).iter().filter(|k| !k.prefetch()) {
            for rows in 1..=ROWS {
                for len in 1..=max_len {
                    let base = first + (len & 1);
                    let mut outs = vec![vec![T::from_f64(f64::NAN); len]; rows];
                    let mut group: Vec<&mut [T]> = outs.iter_mut().map(|o| &mut o[..]).collect();
                    kernel.run_rows(&block, &states, base, &mut group);
                    for (r, out) in outs.iter().enumerate() {
                        for (i, got) in out.iter().enumerate() {
                            let want = c.apply_at(&states, base + r * stride + i);
                            assert_eq!(
                                got.to_f64().to_bits(),
                                want.to_f64().to_bits(),
                                "{}: {} taps, stride {stride}, {rows} rows of {len}, \
                                 row {r} point {i}",
                                kernel.isa(),
                                taps.len()
                            );
                        }
                    }
                }
            }
        }
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
        // One term `ROWS` rows at a time, at strides no shorter than a row.
        let blocks = |(term, stride, seed): (BlockTerm, usize, u64)| {
            check_blocks::<f64>(&term, stride, baseline_only, seed);
            check_blocks::<f32>(&term, stride, baseline_only, seed);
        };
        let random = (block_term(), 0usize..=40, 0u64..1 << 32);
        let path = format!("{test_path}::blocks");
        proptest::run_cases(&path, &config, &random, blocks);
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
        // And through a block: one term over four rows, 16 apart.
        for weight in [-0.5, 0.5] {
            let taps = vec![(-16, -0.25), (-1, -0.5), (0, -0.5), (1, -0.25), (16, -0.5)];
            let c = stencil_1d::<f64>(vec![(1, weight, taps)]);
            let block = RowBlock::merge(&c.terms[0], 16);
            let zeros = vec![0.0f64; 6 * 16];
            let states = [zeros.as_slice()];
            for kernel in kernels::<f64>(false) {
                let mut outs = vec![vec![f64::NAN; 14]; ROWS];
                let mut group: Vec<&mut [f64]> = outs.iter_mut().map(|o| &mut o[..]).collect();
                kernel.run_rows(&block, &states, 17, &mut group);
                for (r, out) in outs.iter().enumerate() {
                    for (i, got) in out.iter().enumerate() {
                        assert_eq!(got.to_bits(), 0.0f64.to_bits(), "{} row {r}", kernel.isa());
                        let want = c.apply_at(&states, 17 + r * 16 + i);
                        assert_eq!(got.to_bits(), want.to_bits());
                    }
                }
            }
        }
    }

    /// Row lengths of a combination test: a tail alone, a tail under one
    /// vector, whole chunks, many chunks and a tail.
    const COMBINED_LENS: [usize; 5] = [1, 7, 8, 64, 1000];

    /// A value a combination must carry bit for bit, `special` being what
    /// the point holds besides ordinary values. Per point one kind of
    /// special: two different NaNs never meet in an add (x86 keeps the
    /// payload of the first operand and Rust lets the compiler order them,
    /// DESIGN.md §12.6), and the NaN that `inf - inf` makes meets no
    /// payload. Ordinary values stay far from overflow, so no add makes a
    /// NaN of its own.
    fn combined_value<T: Scalar>(special: u64, draw: u64) -> T {
        let sign = if draw & 1 == 0 { 1.0 } else { -1.0 };
        let v = match (special, draw >> 1 & 7) {
            (1, 0..=2) => sign * f64::INFINITY,
            (2, 0..=2) => f64::from_bits(0x7ffc_a000_0000_0abc),
            (3, 0..=2) => f64::from_bits(0xfffa_5000_00de_f000),
            (_, 3) => sign * 0.0,
            // Subnormal in f64, and in f32 (a normal f64).
            (_, 4) => sign * f64::from_bits(draw >> 12),
            (_, 5) => sign * 1e-40 * (draw >> 40) as f64 / (1u64 << 24) as f64,
            _ => sign * 1e3 * (draw >> 11) as f64 / (1u64 << 53) as f64,
        };
        T::from_f64(v)
    }

    /// `weights.len()` image rows of every length in [`COMBINED_LENS`]
    /// combined on each kernel under test, the dying image at every
    /// position and absent, the first other term reading the fresh row and
    /// the rest held in buffers of their own: every point compared bit for
    /// bit with `apply_at` over 1-tap terms of those weights. Rows start
    /// one element into their buffers: nothing may depend on alignment.
    fn check_combination<T: Scalar>(weights: &[f64], seed: u64, baseline_only: bool) {
        let mut state = seed;
        let mut draw = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ state >> 30).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ z >> 27).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ z >> 31
        };
        let unit = |(k, &w): (usize, &f64)| (k + 1, w, vec![(0, 1.0)]);
        let oracle = stencil_1d::<T>(weights.iter().enumerate().map(unit).collect());
        for len in COMBINED_LENS {
            let specials: Vec<u64> = (0..len).map(|_| draw() % 4).collect();
            let buffers: Vec<Vec<T>> = (0..weights.len())
                .map(|_| {
                    let row = specials.iter().map(|&special| combined_value(special, draw()));
                    std::iter::once(T::default()).chain(row).collect()
                })
                .collect();
            let states: Vec<&[T]> = buffers.iter().map(|buffer| &buffer[1..]).collect();
            for dying in (0..weights.len()).map(Some).chain([None]) {
                let fresh = (0..weights.len()).find(|&k| Some(k) != dying);
                let images: Vec<(T, ImageOf<'_, T>)> = (0..weights.len())
                    .map(|k| match k {
                        _ if Some(k) == dying => ImageOf::Dying,
                        _ if Some(k) == fresh => ImageOf::Fresh,
                        _ => ImageOf::Held(&buffers[k]),
                    })
                    .enumerate()
                    .map(|(k, of)| (T::from_f64(weights[k]), of))
                    .collect();
                let step = ImageStep {
                    kernel: ImageKernel::Done,
                    states: &[],
                    stride: 0,
                    images: &images,
                };
                for kernel in kernels::<T>(baseline_only) {
                    let mut rows = [fresh, dying].map(|k| match k {
                        Some(k) => buffers[k].clone(),
                        None => vec![T::from_f64(f64::NAN); len + 1],
                    });
                    let [fresh_row, out] = &mut rows;
                    kernel.run_image_rows(&step, 1, &mut [&mut fresh_row[1..]], &mut [&mut out[1..]]);
                    for (i, got) in out[1..].iter().enumerate() {
                        let want = oracle.apply_at(&states, i);
                        assert_eq!(
                            got.to_f64().to_bits(),
                            want.to_f64().to_bits(),
                            "{} prefetch {}: {} terms, dying {dying:?}, row of {len}, point {i}",
                            kernel.isa(),
                            kernel.prefetch(),
                            weights.len()
                        );
                    }
                }
            }
        }
    }

    fn combination_matches_apply_at(baseline_only: bool, test_path: &str) {
        let weights = prop::collection::vec(-2.0f64..2.0, 1..=MAX_IMAGE_TERMS);
        let random = (weights, 0u64..1 << 32);
        let config = ProptestConfig::with_cases(16);
        proptest::run_cases(test_path, &config, &random, |(weights, seed)| {
            check_combination::<f64>(&weights, seed, baseline_only);
            check_combination::<f32>(&weights, seed, baseline_only);
        });
    }

    #[test]
    #[cfg_attr(miri, ignore)] // thousands of points per case
    fn combination_matches_apply_at_on_every_detected_isa() {
        combination_matches_apply_at(false, "specialized::combination_every_detected_isa");
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn combination_matches_apply_at_forced_baseline() {
        combination_matches_apply_at(true, "specialized::combination_forced_baseline");
    }

    /// The first term of `p` compiled against its grid, and the grid's
    /// row stride.
    fn kernel_of(p: &StencilProgram) -> (CompiledTerm<f64>, usize) {
        let g: Grid<f64> = Grid::for_tensor(&p.grid);
        let c = CompiledStencil::compile(p, &g).unwrap();
        (c.terms[0].clone(), crate::sweep::group_stride(&g.strides))
    }

    /// `kernel` alone over `t-1` on a grid of `shape`.
    fn program_of(kernel: Kernel, shape: &[usize]) -> StencilProgram {
        let name = kernel.name.clone();
        let halo = vec![kernel.reach().iter().copied().max().unwrap_or(1); shape.len()];
        StencilProgram::builder("blocks")
            .grid(SpNode::new("B", DType::F64, shape, halo[0], 2).unwrap())
            .kernel(kernel)
            .combine(&[(1, 1.0, name.as_str())])
            .timesteps(1)
            .build()
            .unwrap()
    }

    #[test]
    fn block_schedules_share_what_neighbouring_rows_read() {
        // (loads, segments, loads all four rows share) per kernel.
        let catalog =
            |id| benchmark(id).program(&[16, 16, 16][..benchmark(id).ndim], DType::F64, 1);
        for (name, p, want) in [
            // 14 rows of 11 taps; rows 0..1, 0..2, 0..3, all four (8 rows
            // of taps), 1..4, 2..4, 3..4.
            (
                "2d121pt box",
                catalog(BenchmarkId::S2d121ptBox).unwrap(),
                (154, 7, 88),
            ),
            (
                "2d9pt box",
                catalog(BenchmarkId::S2d9ptBox).unwrap(),
                (18, 6, 0),
            ),
            (
                "3d7pt star",
                catalog(BenchmarkId::S3d7ptStar).unwrap(),
                (22, 20, 0),
            ),
            (
                "2d5pt star",
                program_of(Kernel::star_normalized("K", 2, 1), &[16, 16]),
                (14, 12, 0),
            ),
            (
                "27pt box",
                program_of(Kernel::boxed("K", 3, 1, 0.5).unwrap(), &[8, 8, 8]),
                (54, 18, 0),
            ),
        ] {
            let (term, stride) = kernel_of(&p);
            let block = RowBlock::merge(&term, stride);
            let got = (block.loads(), block.segments(), block.shared());
            assert_eq!(got, want, "{name}: {} taps", term.taps.len());
            // Against the four rows one at a time.
            assert!(block.loads() < ROWS * term.taps.len(), "{name}");
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
