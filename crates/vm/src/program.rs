//! The register-machine program and its row executor.
//!
//! A program is a flat `Vec<Op>` over at most two registers with fixed
//! roles: [`OUT`] holds the point's value, [`ACC`] one long term's sum.
//! Every register holds a **row chunk** of up to [`CHUNK`] contiguous grid
//! points rather than a single value, and every op updates its register in
//! place. `run_row` walks a whole unit-stride row through the program
//! chunk by chunk: one instruction-dispatch loop per chunk instead of one
//! tap-list walk per point.
//!
//! All register storage lives in a caller-owned [`VmScratch`] so the hot
//! path never allocates; workers keep one scratch per thread.

use crate::scalar::VmScalar;

/// Points processed per dispatch of the instruction loop. 64 elements is
/// 512 B of f64 — several vector registers worth of work per instruction,
/// while `n_regs × CHUNK` scratch stays comfortably inside L1.
pub const CHUNK: usize = 64;

/// Maximum taps in one [`Chain`].
pub const MAX_CHAIN: usize = 8;

/// The output register: the point's value after the last op.
pub const OUT: u16 = 0;

/// The accumulator of a term longer than one [`Chain`].
pub const ACC: u16 = 1;

/// Up to [`MAX_CHAIN`] taps, in the term's order: tap `k` reads
/// `states[slot[k]][base + off[k] + i]` and scales it by `consts[c[k]]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chain {
    pub n: u8,
    pub c: [u16; MAX_CHAIN],
    pub slot: [u16; MAX_CHAIN],
    pub off: [i64; MAX_CHAIN],
}

/// One VM instruction. `dst` and `b` are registers (`reg * CHUNK` is the
/// row base); `idx`, `c`, `w`, `seed` index the constant pool. Every
/// multiply-add is a multiply then a separate add (two roundings, never
/// fused): the exact shape of the interpreter's `acc + coeff * src[..]`
/// step, so programs stay bit-identical to the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `dst[i] = consts[idx]` — broadcast a pooled constant over the row.
    Const { dst: u16, idx: u16 },
    /// `dst[i] = consts[c] * b[i] + dst[i]` — fold a long term's sum,
    /// weighted, into the output.
    MulAddC { dst: u16, c: u16, b: u16 },
    /// Part of a long term, accumulated in `dst`:
    ///
    /// ```text
    /// t = seed ? consts[seed] : dst[i]
    /// for k in 0..n: t = consts[c[k]] * states[slot[k]][base + off[k] + i] + t
    /// dst[i] = t
    /// ```
    ///
    /// A term's first chain is seeded; the ones after it carry on.
    FmaChain {
        dst: u16,
        seed: Option<u16>,
        taps: Chain,
    },
    /// A whole term of at most [`MAX_CHAIN`] taps in one dispatch:
    ///
    /// ```text
    /// t = consts[seed]
    /// for k in 0..n: t = consts[c[k]] * states[slot[k]][base + off[k] + i] + t
    /// dst[i] = consts[w] * t + dst[i]
    /// ```
    ///
    /// The term's sum lives in a local, and the output row is read and
    /// written once per term. With `n = 0` it adds `w * seed`.
    FmaChainW {
        dst: u16,
        w: u16,
        seed: u16,
        taps: Chain,
    },
}

/// A compiled register-machine program for one stencil update.
#[derive(Debug, Clone)]
pub struct VmProgram<T> {
    pub(crate) ops: Vec<Op>,
    pub(crate) consts: Vec<T>,
    pub(crate) n_regs: usize,
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

/// `row[i] = fold(t, row[i])` where `t` starts at `seed(row[i])` and takes
/// the chain's first `K` taps, in order.
#[inline(always)]
fn chain<T: VmScalar, const K: usize>(
    consts: &[T],
    taps: &Chain,
    states: &[&[T]],
    base: usize,
    row: &mut [T],
    seed: impl Fn(T) -> T,
    fold: impl Fn(T, T) -> T,
) {
    let n = row.len();
    let rows: [&[T]; K] = std::array::from_fn(|k| {
        let start = (base as i64 + taps.off[k]) as usize;
        &states[taps.slot[k] as usize][start..start + n]
    });
    let cv: [T; K] = std::array::from_fn(|k| consts[taps.c[k] as usize]);
    for (i, r) in row.iter_mut().enumerate() {
        let mut t = seed(*r);
        for (&c, x) in cv.iter().zip(&rows) {
            let prod = c * x[i];
            t = prod + t;
        }
        *r = fold(t, *r);
    }
}

/// [`chain`] with its tap loop unrolled for the chain's length.
fn run_chain<T: VmScalar>(
    consts: &[T],
    taps: &Chain,
    states: &[&[T]],
    base: usize,
    row: &mut [T],
    seed: impl Fn(T) -> T + Copy,
    fold: impl Fn(T, T) -> T + Copy,
) {
    macro_rules! unrolled {
        ($($k:literal)*) => {
            match taps.n {
                $($k => chain::<T, $k>(consts, taps, states, base, row, seed, fold),)*
                _ => chain::<T, MAX_CHAIN>(consts, taps, states, base, row, seed, fold),
            }
        };
    }
    unrolled!(0 1 2 3 4 5 6 7)
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
    /// taps read (slot 0 = most recent state, matching the interpreter's
    /// `states[dt - 1]` convention shifted by the caller).
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
        let consts = &self.consts[..];
        // One row per role; a program without a long term has no `ACC`.
        let (o, a) = scratch.regs.split_at_mut(CHUNK);
        let acc_len = n.min(a.len());
        let (o, a) = (&mut o[..n], &mut a[..acc_len]);
        fn reg<'r, T>(r: u16, o: &'r mut [T], a: &'r mut [T]) -> &'r mut [T] {
            if r == OUT {
                o
            } else {
                a
            }
        }
        for op in &self.ops {
            match *op {
                Op::Const { dst, idx } => reg(dst, o, a).fill(consts[idx as usize]),
                Op::MulAddC { dst, c, b } => {
                    let cv = consts[c as usize];
                    // Two roles: `b` is the register `dst` is not.
                    let (d, s) = if dst == OUT {
                        (&mut *o, &*a)
                    } else {
                        (&mut *a, &*o)
                    };
                    debug_assert_ne!(b, dst);
                    for (r, &x) in d.iter_mut().zip(s) {
                        let prod = cv * x;
                        *r = prod + *r;
                    }
                }
                Op::FmaChain {
                    dst,
                    seed,
                    ref taps,
                } => {
                    let row = reg(dst, o, a);
                    match seed {
                        Some(s) => {
                            let s = consts[s as usize];
                            run_chain(consts, taps, states, base, row, |_| s, |t, _| t)
                        }
                        None => run_chain(consts, taps, states, base, row, |r| r, |t, _| t),
                    }
                }
                Op::FmaChainW {
                    dst,
                    w,
                    seed,
                    ref taps,
                } => {
                    let (w, s) = (consts[w as usize], consts[seed as usize]);
                    let fold = |t: T, r: T| {
                        let prod = w * t;
                        prod + r
                    };
                    run_chain(consts, taps, states, base, reg(dst, o, a), |_| s, fold);
                }
            }
        }
        out.copy_from_slice(o);
    }

    /// One-shot static audit of the bytecode, run before first dispatch
    /// in debug builds: every register is defined before it is read and
    /// in bounds, every constant index hits the pool, every tap's slot is
    /// within `n_slots`, chain lengths stay in range (`1..=MAX_CHAIN`,
    /// `0..=MAX_CHAIN` for a whole term), the output is defined, and —
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
            // The executor has the two register roles and no others.
            if (r as usize) < self.n_regs.min(2) {
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
        let chain_ok = |taps: &Chain, min: u8, i: usize| -> Result<(), String> {
            if taps.n < min || taps.n as usize > MAX_CHAIN {
                return Err(format!(
                    "op {i}: chain length {} outside {min}..={MAX_CHAIN}",
                    taps.n
                ));
            }
            for k in 0..taps.n as usize {
                let (slot, off) = (taps.slot[k], taps.off[k]);
                konst(taps.c[k], i)?;
                if slot as usize >= self.n_slots {
                    return Err(format!(
                        "op {i}: state slot {slot} out of bounds (n_slots = {})",
                        self.n_slots
                    ));
                }
                if let Some(allowed) = allowed_taps {
                    if !allowed.contains(&(slot as usize, off)) {
                        return Err(format!(
                            "op {i}: load (slot {slot}, off {off}) is not a tap of \
                             the stencil's footprint"
                        ));
                    }
                }
            }
            Ok(())
        };
        for (i, op) in self.ops.iter().enumerate() {
            // What the op reads besides the states and the pool: its own
            // register unless it overwrites it, and `b`.
            let (dst, reads_dst, b) = match *op {
                Op::Const { dst, idx } => {
                    konst(idx, i)?;
                    (dst, false, None)
                }
                Op::MulAddC { dst, c, b } => {
                    konst(c, i)?;
                    if dst == b {
                        return Err(format!("op {i}: r{b} is added into itself"));
                    }
                    (dst, true, Some(b))
                }
                Op::FmaChain {
                    dst,
                    seed,
                    ref taps,
                } => {
                    chain_ok(taps, 1, i)?;
                    if let Some(s) = seed {
                        konst(s, i)?;
                    }
                    (dst, seed.is_none(), None)
                }
                Op::FmaChainW {
                    dst,
                    w,
                    seed,
                    ref taps,
                } => {
                    konst(w, i)?;
                    konst(seed, i)?;
                    chain_ok(taps, 0, i)?;
                    (dst, true, None)
                }
            };
            // Sources must be defined before this op runs.
            for s in reads_dst.then_some(dst).into_iter().chain(b) {
                let s = reg(s, "source", i)?;
                if !defined[s] {
                    return Err(format!("op {i}: reads r{s} before any op defines it"));
                }
            }
            defined[reg(dst, "destination", i)?] = true;
        }
        let out = reg(OUT, "output", self.ops.len())?;
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

    fn prog(ops: Vec<Op>, consts: Vec<f64>, n_regs: usize, n_slots: usize) -> VmProgram<f64> {
        VmProgram {
            ops,
            consts,
            n_regs,
            n_slots,
        }
    }

    /// `taps` as one chain, each tap scaled by `consts[c]`.
    fn chain_of(c: u16, taps: &[(u16, i64)]) -> Chain {
        let mut ch = Chain {
            n: taps.len() as u8,
            c: [c; MAX_CHAIN],
            slot: [0; MAX_CHAIN],
            off: [0; MAX_CHAIN],
        };
        for (k, &(slot, off)) in taps.iter().enumerate() {
            (ch.slot[k], ch.off[k]) = (slot, off);
        }
        ch
    }

    /// `r0 = 0; r1 = 0.5 * u[-1]; r0 += 0.5 * r1`: every op, both registers.
    fn long_term(off: i64) -> Vec<Op> {
        vec![
            Op::Const { dst: OUT, idx: 0 },
            Op::FmaChain {
                dst: ACC,
                seed: Some(0),
                taps: chain_of(1, &[(0, off)]),
            },
            Op::MulAddC {
                dst: OUT,
                c: 1,
                b: ACC,
            },
            Op::FmaChainW {
                dst: OUT,
                w: 1,
                seed: 0,
                taps: chain_of(1, &[]),
            },
        ]
    }

    #[test]
    fn well_formed_program_passes() {
        let p = prog(long_term(-1), vec![0.0, 0.5], 2, 1);
        p.sanity_check(None).unwrap();
        let allowed: BTreeSet<(usize, i64)> = [(0usize, -1i64)].into();
        p.sanity_check(Some(&allowed)).unwrap();
    }

    #[test]
    fn use_before_def_is_caught() {
        // The accumulator carried on before any chain seeded it.
        let mut ops = long_term(-1);
        ops[1] = Op::FmaChain {
            dst: ACC,
            seed: None,
            taps: chain_of(1, &[(0, -1)]),
        };
        let e = prog(ops, vec![0.0, 0.5], 2, 1)
            .sanity_check(None)
            .unwrap_err();
        assert!(e.contains("r1 before any op defines it"), "{e}");
        // The output read by a whole term before `Const` set it.
        let ops = long_term(-1)[3..].to_vec();
        let e = prog(ops, vec![0.0, 0.5], 2, 1)
            .sanity_check(None)
            .unwrap_err();
        assert!(e.contains("r0 before any op defines it"), "{e}");
    }

    #[test]
    fn register_const_and_slot_bounds_are_caught() {
        let oob_reg = prog(vec![Op::Const { dst: 7, idx: 0 }], vec![0.0], 1, 1);
        assert!(oob_reg
            .sanity_check(None)
            .unwrap_err()
            .contains("out of bounds"));
        // A register the file has but no role names.
        let third = prog(vec![Op::Const { dst: 2, idx: 0 }], vec![0.0], 3, 1);
        assert!(third
            .sanity_check(None)
            .unwrap_err()
            .contains("r2 out of bounds"));
        // The accumulator in a program sized for the output alone.
        let narrow = prog(long_term(-1), vec![0.0, 0.5], 1, 1);
        assert!(narrow
            .sanity_check(None)
            .unwrap_err()
            .contains("r1 out of bounds"));

        let oob_const = prog(vec![Op::Const { dst: 0, idx: 9 }], vec![0.0], 1, 1);
        assert!(oob_const
            .sanity_check(None)
            .unwrap_err()
            .contains("out of pool"));
        let mut ops = long_term(-1);
        ops[2] = Op::MulAddC {
            dst: OUT,
            c: 2,
            b: ACC,
        };
        let oob_weight = prog(ops, vec![0.0, 0.5], 2, 1);
        assert!(oob_weight
            .sanity_check(None)
            .unwrap_err()
            .contains("constant index 2"));

        let mut ops = long_term(-1);
        ops[1] = Op::FmaChain {
            dst: ACC,
            seed: Some(0),
            taps: chain_of(1, &[(3, 0)]),
        };
        let oob_slot = prog(ops, vec![0.0, 0.5], 2, 2);
        assert!(oob_slot.sanity_check(None).unwrap_err().contains("slot 3"));
    }

    #[test]
    fn off_footprint_tap_is_caught() {
        let p = prog(long_term(99), vec![0.0, 0.5], 2, 1);
        p.sanity_check(None).unwrap();
        let allowed: BTreeSet<(usize, i64)> = [(0usize, -1i64), (0, 0), (0, 1)].into();
        let e = p.sanity_check(Some(&allowed)).unwrap_err();
        assert!(e.contains("not a tap"), "{e}");
    }

    #[test]
    fn bad_chain_length_self_add_and_undefined_out_are_caught() {
        let mut long = chain_of(0, &[]);
        long.n = (MAX_CHAIN + 1) as u8;
        for bad in [
            Op::FmaChain {
                dst: ACC,
                seed: Some(0),
                taps: long,
            },
            Op::FmaChainW {
                dst: OUT,
                w: 0,
                seed: 0,
                taps: long,
            },
            // Only a whole term may have no taps.
            Op::FmaChain {
                dst: ACC,
                seed: Some(0),
                taps: chain_of(0, &[]),
            },
        ] {
            let p = prog(vec![Op::Const { dst: OUT, idx: 0 }, bad], vec![0.0], 2, 1);
            assert!(p.sanity_check(None).unwrap_err().contains("chain length"));
        }

        let mut ops = long_term(-1);
        ops[2] = Op::MulAddC {
            dst: OUT,
            c: 1,
            b: OUT,
        };
        let self_add = prog(ops, vec![0.0, 0.5], 2, 1);
        assert!(self_add
            .sanity_check(None)
            .unwrap_err()
            .contains("added into itself"));

        let undef_out = prog(vec![Op::Const { dst: ACC, idx: 0 }], vec![0.0], 2, 1);
        assert!(undef_out
            .sanity_check(None)
            .unwrap_err()
            .contains("never defined"));
    }
}
