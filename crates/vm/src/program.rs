//! The register-machine program and its row executor.
//!
//! A program is a flat `Vec<Op>` over physical registers, where every
//! register holds a **row chunk** of up to [`CHUNK`] contiguous grid
//! points rather than a single value. `run_row` walks a whole unit-stride
//! row through the program chunk by chunk: one instruction-dispatch loop
//! per chunk instead of one tree walk per point.
//!
//! All register storage lives in a caller-owned [`VmScratch`] so the hot
//! path never allocates; workers keep one scratch per thread.

use crate::scalar::VmScalar;

/// Points processed per dispatch of the instruction loop. 64 elements is
/// 512 B of f64 — several vector registers worth of work per instruction,
/// while `n_regs × CHUNK` scratch stays comfortably inside L1.
pub const CHUNK: usize = 64;

/// Maximum taps merged into one [`Op::FmaChain`] dispatch.
pub const MAX_CHAIN: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinKind {
    Add,
    Sub,
    Mul,
    Div,
    Min,
    Max,
    Pow,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnKind {
    Neg,
    Abs,
    Sqrt,
    Exp,
    Sin,
    Cos,
}

/// One VM instruction. Register operands are indices into the scratch
/// (`reg * CHUNK` is the row base); `idx`/`c` index the constant pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `dst[i] = consts[idx]` — broadcast a pooled constant over the row.
    Const { dst: u16, idx: u16 },
    /// `dst[i] = states[slot][base + off + i]` — unit-stride tap load with
    /// the flat offset (per-tap strides dotted out at compile time).
    Load { dst: u16, slot: u16, off: i64 },
    /// `dst[i] = consts[c] * b[i] + acc[i]`, evaluated as a multiply then
    /// a separate add (two roundings, never fused). This is the exact
    /// shape of the interpreter's `acc + coeff * src[..]` step, so the
    /// linear path stays bit-identical to the oracle.
    MulAddC { dst: u16, c: u16, b: u16, acc: u16 },
    /// `dst[i] = consts[c] * states[slot][base + off + i] + acc[i]` —
    /// `Load` fused into `MulAddC`, reading the tap straight from the
    /// state grid instead of materializing it in a register first. Same
    /// two-rounding arithmetic as `MulAddC`; the allocator places `dst`
    /// in `acc`'s register when `acc` dies here, making the hot linear
    /// chain an in-place accumulation with no row copies at all.
    FmaLoad {
        dst: u16,
        c: u16,
        slot: u16,
        off: i64,
        acc: u16,
    },
    /// Up to [`MAX_CHAIN`] consecutive in-place [`Op::FmaLoad`]s merged
    /// into one dispatch (the peephole in `compile::finish`):
    ///
    /// ```text
    /// t = acc[i]
    /// for k in 0..n: t = consts[c[k]] * states[slot[k]][base + off[k] + i] + t
    /// dst[i] = t
    /// ```
    ///
    /// Per lane this is the identical multiply-then-add sequence the
    /// unmerged chain performs, so bit-identity is untouched; the win is
    /// one accumulator read and one write per lane for the whole group
    /// instead of one per tap, with a const-generic unrolled tap loop.
    FmaChain {
        dst: u16,
        acc: u16,
        n: u8,
        c: [u16; MAX_CHAIN],
        slot: [u16; MAX_CHAIN],
        off: [i64; MAX_CHAIN],
    },
    /// One whole temporal term fused into a single dispatch: an
    /// [`Op::FmaChain`] whose seed is a pooled constant (the zero splat),
    /// followed by the `MulAddC` that folds the term into the running
    /// output:
    ///
    /// ```text
    /// t = consts[seed_c]
    /// for k in 0..n: t = consts[c[k]] * states[slot[k]][base + off[k] + i] + t
    /// dst[i] = consts[w] * t + acc[i]
    /// ```
    ///
    /// Same multiply-then-add sequence per lane as the unfused ops, so
    /// bit-identity holds; the term's accumulator now lives entirely in a
    /// local, and the output row is read and written once per term.
    FmaChainW {
        dst: u16,
        acc: u16,
        w: u16,
        seed_c: u16,
        n: u8,
        c: [u16; MAX_CHAIN],
        slot: [u16; MAX_CHAIN],
        off: [i64; MAX_CHAIN],
    },
    /// `dst[i] = a[i] <op> b[i]`.
    Bin {
        op: BinKind,
        dst: u16,
        a: u16,
        b: u16,
    },
    /// `dst[i] = <op>(a[i])`.
    Un { op: UnKind, dst: u16, a: u16 },
}

impl Op {
    pub(crate) fn dst(self) -> u16 {
        match self {
            Op::Const { dst, .. }
            | Op::Load { dst, .. }
            | Op::MulAddC { dst, .. }
            | Op::FmaLoad { dst, .. }
            | Op::FmaChain { dst, .. }
            | Op::FmaChainW { dst, .. }
            | Op::Bin { dst, .. }
            | Op::Un { dst, .. } => dst,
        }
    }

    /// Source registers (0–2 of them) as a fixed array + count.
    pub(crate) fn srcs(self) -> ([u16; 2], usize) {
        match self {
            Op::Const { .. } | Op::Load { .. } => ([0, 0], 0),
            Op::Un { a, .. }
            | Op::FmaLoad { acc: a, .. }
            | Op::FmaChain { acc: a, .. }
            | Op::FmaChainW { acc: a, .. } => ([a, 0], 1),
            Op::MulAddC { b, acc, .. } => ([b, acc], 2),
            Op::Bin { a, b, .. } => ([a, b], 2),
        }
    }

    pub(crate) fn remap(&mut self, dst: u16, srcs: [u16; 2]) {
        match self {
            Op::Const { dst: d, .. } | Op::Load { dst: d, .. } => *d = dst,
            Op::Un { dst: d, a, .. } => {
                *d = dst;
                *a = srcs[0];
            }
            Op::FmaLoad { dst: d, acc, .. }
            | Op::FmaChain { dst: d, acc, .. }
            | Op::FmaChainW { dst: d, acc, .. } => {
                *d = dst;
                *acc = srcs[0];
            }
            Op::MulAddC { dst: d, b, acc, .. } => {
                *d = dst;
                *b = srcs[0];
                *acc = srcs[1];
            }
            Op::Bin { dst: d, a, b, .. } => {
                *d = dst;
                *a = srcs[0];
                *b = srcs[1];
            }
        }
    }
}

/// A compiled register-machine program for one stencil update.
#[derive(Debug, Clone)]
pub struct VmProgram<T> {
    pub(crate) ops: Vec<Op>,
    pub(crate) consts: Vec<T>,
    pub(crate) n_regs: usize,
    /// Register holding the final per-point value after the last op.
    pub(crate) out: u16,
    /// Number of state slots the program reads (`states.len()` must be at
    /// least this).
    pub n_slots: usize,
}

/// Caller-owned register file: `n_regs × CHUNK` elements, allocated once
/// and reused across every row of every tile.
#[derive(Debug, Clone)]
pub struct VmScratch<T> {
    regs: Vec<T>,
}

impl<T: VmScalar> VmProgram<T> {
    pub fn n_ops(&self) -> usize {
        self.ops.len()
    }

    pub fn n_regs(&self) -> usize {
        self.n_regs
    }

    pub fn n_consts(&self) -> usize {
        self.consts.len()
    }

    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    pub fn scratch(&self) -> VmScratch<T> {
        VmScratch {
            regs: vec![T::default(); self.n_regs * CHUNK],
        }
    }

    /// Number of chunk dispatches `run_row` performs for a row of `len`.
    pub fn dispatches_for(len: usize) -> u64 {
        (len.div_ceil(CHUNK)) as u64
    }

    /// Execute the program over a unit-stride row: for each `i` in
    /// `0..out.len()`, the point at flat index `base + i` is evaluated and
    /// written to `out[i]`. `states[slot]` are the flat input grids the
    /// `Load` ops read (slot 0 = most recent state, matching the
    /// interpreter's `states[dt - 1]` convention shifted by the caller).
    pub fn run_row(&self, states: &[&[T]], base: usize, out: &mut [T], scratch: &mut VmScratch<T>) {
        debug_assert!(states.len() >= self.n_slots);
        debug_assert_eq!(scratch.regs.len(), self.n_regs * CHUNK);
        let mut done = 0;
        while done < out.len() {
            let n = (out.len() - done).min(CHUNK);
            self.run_chunk(states, base + done, &mut out[done..done + n], scratch);
            done += n;
        }
    }

    fn run_chunk(&self, states: &[&[T]], base: usize, out: &mut [T], scratch: &mut VmScratch<T>) {
        let n = out.len();
        let regs = &mut scratch.regs[..];
        for &op in &self.ops {
            match op {
                Op::Const { dst, idx } => {
                    let v = self.consts[idx as usize];
                    let d = dst as usize * CHUNK;
                    for r in &mut regs[d..d + n] {
                        *r = v;
                    }
                }
                Op::Load { dst, slot, off } => {
                    let src = states[slot as usize];
                    let start = (base as i64 + off) as usize;
                    let d = dst as usize * CHUNK;
                    regs[d..d + n].copy_from_slice(&src[start..start + n]);
                }
                Op::MulAddC { dst, c, b, acc } => {
                    let cv = self.consts[c as usize];
                    let d = dst as usize * CHUNK;
                    let bo = b as usize * CHUNK;
                    let ao = acc as usize * CHUNK;
                    for i in 0..n {
                        let prod = cv * regs[bo + i];
                        regs[d + i] = prod + regs[ao + i];
                    }
                }
                Op::FmaChain {
                    dst,
                    acc,
                    n: taps,
                    c,
                    slot,
                    off,
                } => {
                    let d = dst as usize * CHUNK;
                    let a = acc as usize * CHUNK;
                    if d != a {
                        // Seed the destination with the incoming
                        // accumulator; the allocator has already made the
                        // hot chains in-place, so this is the cold case.
                        regs.copy_within(a..a + n, d);
                    }
                    let dst_row = &mut regs[d..d + n];
                    macro_rules! chain {
                        ($k:literal) => {{
                            let rows: [&[T]; $k] = std::array::from_fn(|k| {
                                let start = (base as i64 + off[k]) as usize;
                                &states[slot[k] as usize][start..start + n]
                            });
                            let cv: [T; $k] = std::array::from_fn(|k| self.consts[c[k] as usize]);
                            for (i, r) in dst_row.iter_mut().enumerate() {
                                let mut t = *r;
                                for (&cvk, row) in cv.iter().zip(rows.iter()) {
                                    let prod = cvk * row[i];
                                    t = prod + t;
                                }
                                *r = t;
                            }
                        }};
                    }
                    match taps {
                        1 => chain!(1),
                        2 => chain!(2),
                        3 => chain!(3),
                        4 => chain!(4),
                        5 => chain!(5),
                        6 => chain!(6),
                        7 => chain!(7),
                        _ => chain!(8),
                    }
                }
                Op::FmaChainW {
                    dst,
                    acc,
                    w,
                    seed_c,
                    n: taps,
                    c,
                    slot,
                    off,
                } => {
                    let d = dst as usize * CHUNK;
                    let a = acc as usize * CHUNK;
                    if d != a {
                        regs.copy_within(a..a + n, d);
                    }
                    let seed = self.consts[seed_c as usize];
                    let wv = self.consts[w as usize];
                    let dst_row = &mut regs[d..d + n];
                    macro_rules! wchain {
                        ($k:literal) => {{
                            let rows: [&[T]; $k] = std::array::from_fn(|k| {
                                let start = (base as i64 + off[k]) as usize;
                                &states[slot[k] as usize][start..start + n]
                            });
                            let cv: [T; $k] = std::array::from_fn(|k| self.consts[c[k] as usize]);
                            for (i, r) in dst_row.iter_mut().enumerate() {
                                let mut t = seed;
                                for (&cvk, row) in cv.iter().zip(rows.iter()) {
                                    let prod = cvk * row[i];
                                    t = prod + t;
                                }
                                let prod = wv * t;
                                *r = prod + *r;
                            }
                        }};
                    }
                    match taps {
                        1 => wchain!(1),
                        2 => wchain!(2),
                        3 => wchain!(3),
                        4 => wchain!(4),
                        5 => wchain!(5),
                        6 => wchain!(6),
                        7 => wchain!(7),
                        _ => wchain!(8),
                    }
                }
                Op::FmaLoad {
                    dst,
                    c,
                    slot,
                    off,
                    acc,
                } => {
                    let cv = self.consts[c as usize];
                    let src = states[slot as usize];
                    let start = (base as i64 + off) as usize;
                    let row = &src[start..start + n];
                    let d = dst as usize * CHUNK;
                    let ao = acc as usize * CHUNK;
                    if d == ao {
                        // The common case after allocation: in-place
                        // accumulation, one read-modify-write per lane.
                        for (r, &x) in regs[d..d + n].iter_mut().zip(row) {
                            let prod = cv * x;
                            *r = prod + *r;
                        }
                    } else {
                        for i in 0..n {
                            let prod = cv * row[i];
                            regs[d + i] = prod + regs[ao + i];
                        }
                    }
                }
                Op::Bin { op, dst, a, b } => {
                    let d = dst as usize * CHUNK;
                    let ao = a as usize * CHUNK;
                    let bo = b as usize * CHUNK;
                    macro_rules! lanes {
                        ($f:expr) => {
                            for i in 0..n {
                                let (x, y) = (regs[ao + i], regs[bo + i]);
                                regs[d + i] = $f(x, y);
                            }
                        };
                    }
                    match op {
                        BinKind::Add => lanes!(|x: T, y: T| x + y),
                        BinKind::Sub => lanes!(|x: T, y: T| x - y),
                        BinKind::Mul => lanes!(|x: T, y: T| x * y),
                        BinKind::Div => lanes!(|x: T, y: T| x / y),
                        BinKind::Min => lanes!(|x: T, y: T| x.vmin(y)),
                        BinKind::Max => lanes!(|x: T, y: T| x.vmax(y)),
                        BinKind::Pow => lanes!(|x: T, y: T| x.vpow(y)),
                    }
                }
                Op::Un { op, dst, a } => {
                    let d = dst as usize * CHUNK;
                    let ao = a as usize * CHUNK;
                    macro_rules! lanes {
                        ($f:expr) => {
                            for i in 0..n {
                                let x = regs[ao + i];
                                regs[d + i] = $f(x);
                            }
                        };
                    }
                    match op {
                        UnKind::Neg => lanes!(|x: T| x.vneg()),
                        UnKind::Abs => lanes!(|x: T| x.vabs()),
                        UnKind::Sqrt => lanes!(|x: T| x.vsqrt()),
                        UnKind::Exp => lanes!(|x: T| x.vexp()),
                        UnKind::Sin => lanes!(|x: T| x.vsin()),
                        UnKind::Cos => lanes!(|x: T| x.vcos()),
                    }
                }
            }
        }
        let o = self.out as usize * CHUNK;
        out.copy_from_slice(&regs[o..o + n]);
    }

    /// Evaluate a single point (a row of length one). Test/debug helper;
    /// the executors always go through `run_row`.
    pub fn run_point(&self, states: &[&[T]], base: usize, scratch: &mut VmScratch<T>) -> T {
        let mut out = [T::default()];
        self.run_row(states, base, &mut out, scratch);
        out[0]
    }

    /// One-shot static audit of the bytecode, run before first dispatch
    /// in debug builds: every register is defined before it is read and
    /// in bounds, every constant index hits the pool, every load's slot
    /// is within `n_slots`, chain lengths stay in `1..=MAX_CHAIN`, and —
    /// when the caller knows the stencil's tap set — every `(slot, off)`
    /// the program can touch is one of the stencil's own taps, so a
    /// miscompiled offset can never read outside the kernel's footprint.
    ///
    /// `run_chunk` itself stays check-free: this walk is O(ops), once,
    /// instead of per-row bounds logic in the hot loop.
    pub fn sanity_check(
        &self,
        allowed_taps: Option<&std::collections::BTreeSet<(usize, i64)>>,
    ) -> Result<(), String> {
        let mut defined = vec![false; self.n_regs];
        let reg = |r: u16, what: &str, i: usize| -> Result<usize, String> {
            if (r as usize) < self.n_regs {
                Ok(r as usize)
            } else {
                Err(format!(
                    "op {i}: {what} register r{r} out of bounds (n_regs = {})",
                    self.n_regs
                ))
            }
        };
        let konst = |c: u16, i: usize| -> Result<(), String> {
            if (c as usize) < self.consts.len() {
                Ok(())
            } else {
                Err(format!(
                    "op {i}: constant index {c} out of pool (len {})",
                    self.consts.len()
                ))
            }
        };
        let tap = |slot: u16, off: i64, i: usize| -> Result<(), String> {
            if slot as usize >= self.n_slots {
                return Err(format!(
                    "op {i}: state slot {slot} out of bounds (n_slots = {})",
                    self.n_slots
                ));
            }
            if let Some(taps) = allowed_taps {
                if !taps.contains(&(slot as usize, off)) {
                    return Err(format!(
                        "op {i}: load (slot {slot}, off {off}) is not a tap of \
                         the stencil's footprint"
                    ));
                }
            }
            Ok(())
        };
        for (i, op) in self.ops.iter().enumerate() {
            // Sources must be defined before this op runs.
            let (srcs, n_srcs) = op.srcs();
            for &s in &srcs[..n_srcs] {
                let s = reg(s, "source", i)?;
                if !defined[s] {
                    return Err(format!("op {i}: reads r{s} before any op defines it"));
                }
            }
            match *op {
                Op::Const { idx, .. } => konst(idx, i)?,
                Op::Load { slot, off, .. } => tap(slot, off, i)?,
                Op::MulAddC { c, .. } => konst(c, i)?,
                Op::FmaLoad { c, slot, off, .. } => {
                    konst(c, i)?;
                    tap(slot, off, i)?;
                }
                Op::FmaChain {
                    n, c, slot, off, ..
                } => {
                    if n == 0 || n as usize > MAX_CHAIN {
                        return Err(format!("op {i}: chain length {n} outside 1..={MAX_CHAIN}"));
                    }
                    for k in 0..n as usize {
                        konst(c[k], i)?;
                        tap(slot[k], off[k], i)?;
                    }
                }
                Op::FmaChainW {
                    w,
                    seed_c,
                    n,
                    c,
                    slot,
                    off,
                    ..
                } => {
                    konst(w, i)?;
                    konst(seed_c, i)?;
                    if n == 0 || n as usize > MAX_CHAIN {
                        return Err(format!("op {i}: chain length {n} outside 1..={MAX_CHAIN}"));
                    }
                    for k in 0..n as usize {
                        konst(c[k], i)?;
                        tap(slot[k], off[k], i)?;
                    }
                }
                Op::Bin { .. } | Op::Un { .. } => {}
            }
            defined[reg(op.dst(), "destination", i)?] = true;
        }
        let out = reg(self.out, "output", self.ops.len())?;
        if !defined[out] {
            return Err(format!("output register r{out} is never defined"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod sanity_tests {
    use super::*;
    use std::collections::BTreeSet;

    fn prog(
        ops: Vec<Op>,
        consts: Vec<f64>,
        n_regs: usize,
        out: u16,
        n_slots: usize,
    ) -> VmProgram<f64> {
        VmProgram {
            ops,
            consts,
            n_regs,
            out,
            n_slots,
        }
    }

    #[test]
    fn well_formed_program_passes() {
        let p = prog(
            vec![
                Op::Const { dst: 0, idx: 0 },
                Op::FmaLoad {
                    dst: 0,
                    c: 1,
                    slot: 0,
                    off: -1,
                    acc: 0,
                },
            ],
            vec![0.0, 0.5],
            1,
            0,
            1,
        );
        p.sanity_check(None).unwrap();
        let allowed: BTreeSet<(usize, i64)> = [(0usize, -1i64)].into();
        p.sanity_check(Some(&allowed)).unwrap();
    }

    #[test]
    fn use_before_def_is_caught() {
        let p = prog(
            vec![Op::Un {
                op: UnKind::Neg,
                dst: 0,
                a: 1,
            }],
            vec![],
            2,
            0,
            1,
        );
        let e = p.sanity_check(None).unwrap_err();
        assert!(e.contains("before any op defines it"), "{e}");
    }

    #[test]
    fn register_const_and_slot_bounds_are_caught() {
        let oob_reg = prog(vec![Op::Const { dst: 7, idx: 0 }], vec![0.0], 1, 0, 1);
        assert!(oob_reg
            .sanity_check(None)
            .unwrap_err()
            .contains("out of bounds"));

        let oob_const = prog(vec![Op::Const { dst: 0, idx: 9 }], vec![0.0], 1, 0, 1);
        assert!(oob_const
            .sanity_check(None)
            .unwrap_err()
            .contains("out of pool"));

        let oob_slot = prog(
            vec![
                Op::Const { dst: 0, idx: 0 },
                Op::Load {
                    dst: 0,
                    slot: 3,
                    off: 0,
                },
            ],
            vec![0.0],
            1,
            0,
            2,
        );
        assert!(oob_slot.sanity_check(None).unwrap_err().contains("slot 3"));
    }

    #[test]
    fn off_footprint_tap_is_caught() {
        let p = prog(
            vec![
                Op::Const { dst: 0, idx: 0 },
                Op::FmaLoad {
                    dst: 0,
                    c: 0,
                    slot: 0,
                    off: 99,
                    acc: 0,
                },
            ],
            vec![0.25],
            1,
            0,
            1,
        );
        p.sanity_check(None).unwrap();
        let allowed: BTreeSet<(usize, i64)> = [(0usize, -1i64), (0, 0), (0, 1)].into();
        let e = p.sanity_check(Some(&allowed)).unwrap_err();
        assert!(e.contains("not a tap"), "{e}");
    }

    #[test]
    fn bad_chain_length_and_undefined_out_are_caught() {
        let chain = prog(
            vec![
                Op::Const { dst: 0, idx: 0 },
                Op::FmaChain {
                    dst: 0,
                    acc: 0,
                    n: (MAX_CHAIN + 1) as u8,
                    c: [0; MAX_CHAIN],
                    slot: [0; MAX_CHAIN],
                    off: [0; MAX_CHAIN],
                },
            ],
            vec![0.0],
            1,
            0,
            1,
        );
        assert!(chain
            .sanity_check(None)
            .unwrap_err()
            .contains("chain length"));

        let undef_out = prog(vec![Op::Const { dst: 0, idx: 0 }], vec![0.0], 2, 1, 1);
        assert!(undef_out
            .sanity_check(None)
            .unwrap_err()
            .contains("never defined"));
    }
}
