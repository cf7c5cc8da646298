//! Padded grid storage: an `SpNode`-shaped buffer with halo cells, generic
//! over the element type so fp32 runs really do arithmetic in `f32`.

use msc_core::error::{MscError, Result};
use msc_core::tensor::SpNode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Element scalar: the two floating types the DSL generates code for.
///
/// The arithmetic surface (including `from_f64`/`to_f64`) lives in
/// [`msc_vm::VmScalar`], the lowest crate of the execution stack, so the
/// bytecode VM can be generic over elements without depending on the
/// executors; this trait just adds the executor-side bounds on top.
pub trait Scalar: msc_vm::VmScalar + std::fmt::Debug {}

impl Scalar for f64 {}
impl Scalar for f32 {}

/// Row-major strides of a dense buffer of `shape`, and its length; `None`
/// when the length overflows `usize`.
pub(crate) fn dense_strides(shape: &[usize]) -> Option<(Vec<usize>, usize)> {
    let mut strides = vec![1usize; shape.len()];
    for d in (0..shape.len().saturating_sub(1)).rev() {
        strides[d] = strides[d + 1].checked_mul(shape[d + 1])?;
    }
    let len = shape.iter().try_fold(1usize, |len, &n| len.checked_mul(n))?;
    Some((strides, len))
}

/// A fresh buffer of at least this many bytes is populated by
/// [`populate`]. 32 MiB is glibc's largest `mmap` threshold: above it a
/// fresh allocation is always a new anonymous mapping with no page behind
/// it, below it the allocator may hand back memory that is already there.
const POPULATE_MIN_BYTES: usize = 32 << 20;

/// Back the freshly allocated, not yet written `buf` with memory in one
/// system call instead of one page fault per 4 KiB on first write
/// (DESIGN.md §17.3). A no-op on small buffers, off Linux and under Miri;
/// the bits of `buf` are the same either way.
fn populate<T>(buf: &mut [T]) {
    let bytes = std::mem::size_of_val(buf);
    if bytes < POPULATE_MIN_BYTES {
        return;
    }
    #[cfg(all(target_os = "linux", not(miri)))]
    {
        use std::ffi::{c_int, c_void};
        extern "C" {
            fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        }
        const MADV_POPULATE_WRITE: c_int = 23;
        // A multiple of every page size Linux runs with (4, 16, 64 KiB).
        const ALIGN: usize = 64 << 10;
        let start = buf.as_mut_ptr().cast::<u8>();
        let skip = start.addr().next_multiple_of(ALIGN) - start.addr();
        let len = (bytes - skip) & !(ALIGN - 1);
        // SAFETY: `[start + skip, start + skip + len)` is page-aligned and
        // lies inside `buf` (which is far longer than `ALIGN`, so `skip`
        // fits), and this function holds `buf` exclusively.
        // MADV_POPULATE_WRITE only does what a write to each page would —
        // allocate it, zeroed, and map it writable — and changes no byte a
        // load can see, so `buf` stays the valid `[T]` it was. The result
        // is ignored on purpose: on any failure (EINVAL before Linux 5.14,
        // ENOMEM under a memory limit) nothing was changed and the pages
        // fault in one by one, as they did before this call existed.
        unsafe { madvise(start.wrapping_add(skip).cast(), len, MADV_POPULATE_WRITE) };
    }
}

/// Layout metadata of a grid, detached from its storage — cheap to move
/// into worker threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridLayout {
    pub shape: Vec<usize>,
    pub halo: Vec<usize>,
    pub padded: Vec<usize>,
    pub strides: Vec<usize>,
}

impl GridLayout {
    /// The layout of a grid of interior `shape` with `halo` cells on each
    /// side, or a typed error when its padded size overflows `usize`.
    pub(crate) fn new(shape: &[usize], halo: &[usize]) -> Result<GridLayout> {
        if shape.len() != halo.len() {
            return Err(MscError::DimMismatch {
                expected: shape.len(),
                got: halo.len(),
            });
        }
        let too_large = || MscError::GridTooLarge {
            shape: shape.to_vec(),
            halo: halo.to_vec(),
            bytes: None,
        };
        let padded = shape
            .iter()
            .zip(halo)
            .map(|(&s, &h)| h.checked_mul(2).and_then(|h| h.checked_add(s)))
            .collect::<Option<Vec<usize>>>()
            .ok_or_else(too_large)?;
        let (strides, _) = dense_strides(&padded).ok_or_else(too_large)?;
        Ok(GridLayout {
            shape: shape.to_vec(),
            halo: halo.to_vec(),
            padded,
            strides,
        })
    }

    /// Elements in the padded buffer.
    pub(crate) fn padded_len(&self) -> usize {
        self.padded.iter().product()
    }

    /// Linear index of an interior coordinate.
    #[inline]
    pub fn index(&self, pos: &[usize]) -> usize {
        pos.iter()
            .zip(&self.halo)
            .zip(&self.strides)
            .map(|((&p, &h), &s)| (p + h) * s)
            .sum()
    }

    /// Linear index of a *padded* coordinate (halo included).
    #[inline]
    pub(crate) fn padded_index(&self, pos: &[usize]) -> usize {
        pos.iter().zip(&self.strides).map(|(&p, &s)| p * s).sum()
    }

    pub fn ndim(&self) -> usize {
        self.shape.len()
    }
}

/// A dense row-major grid with halo padding on every side.
///
/// Coordinates passed to [`Grid::get`]/[`Grid::set`] are *interior*
/// coordinates; the halo offset is added internally. Negative interior
/// coordinates (reads into the halo) are reached through
/// [`Grid::get_rel`].
#[derive(Debug, Clone, PartialEq)]
pub struct Grid<T> {
    /// Interior shape.
    pub shape: Vec<usize>,
    /// Halo width per dimension.
    pub halo: Vec<usize>,
    /// Padded shape (`shape + 2*halo`).
    pub padded: Vec<usize>,
    /// Row-major strides over the padded buffer.
    pub strides: Vec<usize>,
    data: Vec<T>,
    pub(crate) on_drop: OnDrop<T>,
}

/// What dropping a grid does besides freeing it: the state a time loop
/// handed out goes back to the retired slots (DESIGN.md §17.4).
/// A clone does not inherit it, and grids compare equal whatever it is.
#[derive(Debug)]
pub(crate) struct OnDrop<T>(pub(crate) Option<fn(Grid<T>)>);

impl<T> Clone for OnDrop<T> {
    fn clone(&self) -> Self {
        OnDrop(None)
    }
}

impl<T> PartialEq for OnDrop<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<T> Drop for Grid<T> {
    fn drop(&mut self) {
        if let Some(hook) = self.on_drop.0.take() {
            hook(Grid {
                shape: std::mem::take(&mut self.shape),
                halo: std::mem::take(&mut self.halo),
                padded: std::mem::take(&mut self.padded),
                strides: std::mem::take(&mut self.strides),
                data: std::mem::take(&mut self.data),
                on_drop: OnDrop(None),
            });
        }
    }
}

impl<T: Scalar> Grid<T> {
    /// Zero-filled grid. Panics when its size overflows `usize`.
    pub fn zeros(shape: &[usize], halo: &[usize]) -> Grid<T> {
        let layout = GridLayout::new(shape, halo).unwrap_or_else(|e| panic!("{e}"));
        let n = layout.padded_len();
        let GridLayout { shape, halo, padded, strides } = layout;
        Grid {
            shape,
            halo,
            padded,
            strides,
            data: vec![T::default(); n],
            on_drop: OnDrop(None),
        }
    }

    /// A grid of `layout` whose padded buffer `fill` writes, given room
    /// for all of it; a typed error, not an abort, when the allocator
    /// refuses that room (DESIGN.md §17.6).
    fn try_filled(layout: GridLayout, fill: impl FnOnce(&mut Vec<T>, usize)) -> Result<Grid<T>> {
        let n = layout.padded_len();
        let mut data = Vec::new();
        if data.try_reserve_exact(n).is_err() {
            let bytes = n.checked_mul(std::mem::size_of::<T>());
            return Err(MscError::GridTooLarge {
                bytes: bytes.filter(|&b| b <= isize::MAX as usize),
                shape: layout.shape,
                halo: layout.halo,
            });
        }
        fill(&mut data, n);
        let GridLayout { shape, halo, padded, strides } = layout;
        Ok(Grid { shape, halo, padded, strides, data, on_drop: OnDrop(None) })
    }

    /// Grid shaped like an `SpNode` (one timestep buffer).
    pub fn for_tensor(t: &SpNode) -> Grid<T> {
        Grid::zeros(&t.shape, &t.halo)
    }

    /// Deterministic random fill of the whole padded buffer (including
    /// halos) in `[0, 1)` — the substitution for the paper's
    /// `/data/rand.data` input. Panics where [`Grid::try_random`] fails.
    pub fn random(shape: &[usize], halo: &[usize], seed: u64) -> Grid<T> {
        Grid::try_random(shape, halo, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Grid::random`], or a typed error when the grid's size overflows
    /// or the allocator refuses it: how a run's seed is made.
    pub fn try_random(shape: &[usize], halo: &[usize], seed: u64) -> Result<Grid<T>> {
        let mut rng = StdRng::seed_from_u64(seed);
        Grid::try_filled(GridLayout::new(shape, halo)?, |data, n| {
            data.extend((0..n).map(|_| T::from_f64(rng.gen::<f64>())))
        })
    }

    /// Fill from a function of interior coordinates (halo filled with the
    /// clamped boundary value).
    pub fn from_fn(shape: &[usize], halo: &[usize], f: impl Fn(&[usize]) -> f64) -> Grid<T> {
        let mut g = Grid::zeros(shape, halo);
        let padded = g.padded.clone();
        let mut idx = vec![0usize; padded.len()];
        loop {
            // Clamp padded coords into the interior.
            let interior: Vec<usize> = idx
                .iter()
                .zip(&g.halo)
                .zip(&g.shape)
                .map(|((&p, &h), &s)| p.saturating_sub(h).min(s - 1))
                .collect();
            let lin = idx
                .iter()
                .zip(&g.strides)
                .map(|(&i, &s)| i * s)
                .sum::<usize>();
            g.data[lin] = T::from_f64(f(&interior));
            // Odometer.
            let mut d = padded.len();
            loop {
                if d == 0 {
                    return g;
                }
                d -= 1;
                idx[d] += 1;
                if idx[d] < padded[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
    }

    /// A zero grid of this layout, populated if large (DESIGN.md §17.3):
    /// a fresh window slot, before its halo is copied in. A typed error
    /// when the allocator refuses it.
    pub(crate) fn blank(&self) -> Result<Grid<T>> {
        Grid::try_filled(self.layout(), |data, n| {
            // Rows shorter than a page put a halo cell in every page, so a
            // halo copy would fault the whole slot in, one page at a time.
            populate(data.spare_capacity_mut());
            data.resize(n, T::default());
        })
    }

    /// Overwrite the halo cells of `shell`, a grid of this layout, with
    /// this grid's; its interior keeps whatever it held.
    pub(crate) fn copy_halo_into(&self, shell: &mut Grid<T>) {
        debug_assert!(self.shape == shell.shape && self.halo == shell.halo);
        let last = self.ndim() - 1;
        let (row, h) = (self.padded[last], self.halo[last]);
        // Padded rows in storage order: a row with any outer coordinate in
        // the halo is halo throughout, any other only at its two ends.
        let mut idx = vec![0usize; last];
        for base in (0..self.data.len()).step_by(row.max(1)) {
            let outer_halo = (0..last).any(|d| {
                idx[d] < self.halo[d] || idx[d] >= self.halo[d] + self.shape[d]
            });
            let spans = if outer_halo {
                [base..base + row, 0..0]
            } else {
                [base..base + h, base + row - h..base + row]
            };
            for span in spans {
                shell.data[span.clone()].copy_from_slice(&self.data[span]);
            }
            for d in (0..last).rev() {
                idx[d] += 1;
                if idx[d] < self.padded[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
    }

    /// Number of spatial dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Detach the layout metadata.
    pub fn layout(&self) -> GridLayout {
        GridLayout {
            shape: self.shape.clone(),
            halo: self.halo.clone(),
            padded: self.padded.clone(),
            strides: self.strides.clone(),
        }
    }

    /// Linear index of an interior coordinate.
    #[inline]
    pub fn index(&self, pos: &[usize]) -> usize {
        pos.iter()
            .zip(&self.halo)
            .zip(&self.strides)
            .map(|((&p, &h), &s)| (p + h) * s)
            .sum()
    }

    /// Interior read.
    #[inline]
    pub fn get(&self, pos: &[usize]) -> T {
        self.data[self.index(pos)]
    }

    /// Interior write.
    #[inline]
    pub fn set(&mut self, pos: &[usize], v: T) {
        let i = self.index(pos);
        self.data[i] = v;
    }

    /// Read relative to an interior coordinate, allowed to land in the
    /// halo (offsets up to the halo width).
    #[inline]
    pub fn get_rel(&self, pos: &[usize], off: &[i64]) -> T {
        let lin: usize = pos
            .iter()
            .zip(off)
            .zip(self.halo.iter().zip(&self.strides))
            .map(|((&p, &o), (&h, &s))| (((p + h) as i64 + o) as usize) * s)
            .sum();
        self.data[lin]
    }

    /// Raw padded buffer.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Raw padded buffer, mutable.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Total interior points.
    pub(crate) fn interior_len(&self) -> usize {
        self.shape.iter().product()
    }

    /// Visit every interior coordinate.
    pub fn for_each_interior(&self, mut f: impl FnMut(&[usize])) {
        let mut idx = vec![0usize; self.ndim()];
        loop {
            f(&idx);
            let mut d = self.ndim();
            loop {
                if d == 0 {
                    return;
                }
                d -= 1;
                idx[d] += 1;
                if idx[d] < self.shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
    }

    /// Sum of interior values in f64 (diagnostics).
    pub fn interior_sum(&self) -> f64 {
        let mut s = 0.0;
        self.for_each_interior(|pos| s += self.get(pos).to_f64());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T: Scalar> Grid<T> {
        /// A grid of this layout holding this grid's halo cells and a zero
        /// interior: what a cold window slot starts as.
        pub(crate) fn halo_shell(&self) -> Grid<T> {
            let mut shell = self.blank().unwrap();
            self.copy_halo_into(&mut shell);
            shell
        }
    }

    #[test]
    fn padded_layout_and_strides() {
        let g: Grid<f64> = Grid::zeros(&[4, 6], &[1, 2]);
        assert_eq!(g.padded, vec![6, 10]);
        assert_eq!(g.strides, vec![10, 1]);
        assert_eq!(g.as_slice().len(), 60);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut g: Grid<f64> = Grid::zeros(&[3, 3, 3], &[1, 1, 1]);
        g.set(&[0, 1, 2], 7.5);
        assert_eq!(g.get(&[0, 1, 2]), 7.5);
        assert_eq!(g.get(&[0, 1, 1]), 0.0);
    }

    #[test]
    fn get_rel_reads_halo() {
        let mut g: Grid<f64> = Grid::zeros(&[2, 2], &[1, 1]);
        // Write into the halo through the raw buffer: padded coord (0,1)
        // is halo row above interior (0,0).
        let lin = 1;
        g.as_mut_slice()[lin] = 9.0;
        assert_eq!(g.get_rel(&[0, 0], &[-1, 0]), 9.0);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a: Grid<f64> = Grid::random(&[8, 8], &[1, 1], 42);
        let b: Grid<f64> = Grid::random(&[8, 8], &[1, 1], 42);
        let c: Grid<f64> = Grid::random(&[8, 8], &[1, 1], 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn from_fn_fills_interior_and_clamps_halo() {
        let g: Grid<f64> = Grid::from_fn(&[3, 3], &[1, 1], |p| (p[0] * 3 + p[1]) as f64);
        assert_eq!(g.get(&[2, 2]), 8.0);
        // Halo above (0,0) clamps to interior (0,0).
        assert_eq!(g.get_rel(&[0, 0], &[-1, 0]), 0.0);
        // Halo beyond (2,2) clamps to interior (2,2).
        assert_eq!(g.get_rel(&[2, 2], &[1, 1]), 8.0);
    }

    /// `halo_shell` against a clone with its interior set to `+0.0`, bit
    /// for bit (`-0.0 == 0.0`, so `==` on the grids would not do).
    fn check_halo_shell<T: Scalar>(shape: &[usize], halo: &[usize]) {
        let g: Grid<T> = Grid::random(shape, halo, 11);
        let mut expect = g.clone();
        g.for_each_interior(|pos| expect.set(pos, T::default()));
        let shell = g.halo_shell();
        assert_eq!(shell.layout(), g.layout());
        let bits = |g: &Grid<T>| -> Vec<u64> {
            g.as_slice().iter().map(|v| v.to_f64().to_bits()).collect()
        };
        assert!(
            bits(&shell) == bits(&expect),
            "shape {shape:?} halo {halo:?}"
        );
        shell.for_each_interior(|pos| assert_eq!(shell.get(pos).to_f64().to_bits(), 0));
    }

    #[test]
    fn halo_shell_keeps_the_halo_and_blanks_the_interior() {
        // All far below `POPULATE_MIN_BYTES`: nothing is pre-faulted.
        for (shape, halo) in [
            (vec![5], vec![2]),
            (vec![1], vec![0]),
            (vec![4, 3], vec![1, 2]),
            (vec![3, 4, 5], vec![1, 1, 1]),
            (vec![3, 2, 4], vec![2, 0, 1]),
            (vec![2, 3], vec![0, 0]),
        ] {
            check_halo_shell::<f32>(&shape, &halo);
            check_halo_shell::<f64>(&shape, &halo);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // 34 MB
    fn a_pre_faulted_halo_shell_has_the_same_bits() {
        // Just past the gate, with rows shorter than a page (every page
        // holds halo cells, as in stream3d) and longer than one.
        let elems = POPULATE_MIN_BYTES / std::mem::size_of::<f32>();
        for (shape, halo) in [([128, 128, 500], [1, 1, 1]), ([64, 2, 65600], [0, 0, 2])] {
            let padded: usize = shape.iter().zip(&halo).map(|(s, h)| s + 2 * h).product();
            assert!((elems..elems + elems / 50).contains(&padded), "{padded}");
            check_halo_shell::<f32>(&shape, &halo);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // 4 x 32 MB
    fn populate_leaves_every_byte_zero_whatever_the_alignment() {
        // Buffers around the gate, starting at even and odd addresses.
        for skip in [0, 4096 - 1] {
            for len in [POPULATE_MIN_BYTES - 1, POPULATE_MIN_BYTES + 4096 + 1] {
                let mut buf = vec![0u8; skip + len];
                populate(&mut buf[skip..]);
                assert!(buf.iter().all(|&b| b == 0), "skip {skip} len {len}");
            }
        }
        populate::<f64>(&mut []);
    }

    #[test]
    fn a_layout_whose_size_overflows_is_a_typed_error() {
        let big = u32::MAX as usize + 1;
        for (shape, halo) in [
            (vec![big, big], vec![1, 1]),
            (vec![usize::MAX - 1, 1], vec![1, 0]),
            (vec![1, big, big], vec![0, 0, 0]),
        ] {
            let err = GridLayout::new(&shape, &halo).unwrap_err();
            assert_eq!(err, MscError::GridTooLarge { shape, halo, bytes: None });
        }
        let err = GridLayout::new(&[4, 4], &[1]).unwrap_err();
        assert_eq!(err, MscError::DimMismatch { expected: 2, got: 1 });
        // Cells that fit in `usize` but whose bytes do not.
        let err = Grid::<f64>::try_random(&[big, big / 4], &[0, 0], 1).unwrap_err();
        assert!(matches!(err, MscError::GridTooLarge { bytes: None, .. }), "{err}");
        let layout = GridLayout::new(&[4, 6], &[1, 2]).unwrap();
        assert_eq!((layout.padded_len(), &layout.strides[..]), (60, &[10, 1][..]));
        assert_eq!(layout, Grid::<f32>::zeros(&[4, 6], &[1, 2]).layout());
    }

    #[test]
    fn interior_iteration_covers_all_points() {
        let g: Grid<f32> = Grid::zeros(&[3, 4, 5], &[1, 1, 1]);
        let mut count = 0;
        g.for_each_interior(|_| count += 1);
        assert_eq!(count, 60);
        assert_eq!(g.interior_len(), 60);
    }

    #[test]
    fn f32_grid_truncates() {
        let g: Grid<f32> = Grid::from_fn(&[1], &[0], |_| 1.0 + 1e-12);
        assert_eq!(g.get(&[0]), 1.0f32);
    }

    #[test]
    fn index_accounts_for_halo() {
        let g: Grid<f64> = Grid::zeros(&[2, 2], &[2, 2]);
        // interior (0,0) sits at padded (2,2): 2*6 + 2 = 14.
        assert_eq!(g.index(&[0, 0]), 14);
    }
}
