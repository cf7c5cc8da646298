//! Lowering to bytecode: one direct pass over the tap lists, constant
//! pooling, and fixed register roles ([`OUT`], [`ACC`]).

use std::collections::HashMap;

use msc_core::error::{MscError, Result};

use crate::program::{Chain, Op, VmProgram, ACC, MAX_CHAIN, OUT};
use crate::scalar::VmScalar;

/// One temporal term of a linearized stencil: `weight * Σ coeff·state[slot][p+off]`,
/// with taps already dotted against the grid strides into flat offsets.
#[derive(Debug, Clone)]
pub struct LinearTerm<T> {
    /// Index into the `states` slice handed to `run_row`.
    pub slot: usize,
    pub weight: T,
    pub taps: Vec<(i64, T)>,
}

/// The constant pool, deduplicated by the value's f64 bit pattern.
struct Pool<T> {
    consts: Vec<T>,
    ix: HashMap<u64, u16>,
}

impl<T: VmScalar> Pool<T> {
    fn get(&mut self, v: T) -> Result<u16> {
        let bits = v.to_f64().to_bits();
        if let Some(&ix) = self.ix.get(&bits) {
            return Ok(ix);
        }
        if self.consts.len() > u16::MAX as usize {
            return Err(MscError::UnsupportedExpr(
                "kernel too large for the VM (constant pool overflow)".into(),
            ));
        }
        let ix = self.consts.len() as u16;
        self.consts.push(v);
        self.ix.insert(bits, ix);
        Ok(ix)
    }
}

/// Compile linearized tap lists into a VM program that replays the
/// interpreter's exact evaluation order:
///
/// ```text
/// out = 0
/// for term:  acc = 0; for (off, coeff): acc = acc + coeff * tap
///            out = out + term.weight * acc
/// ```
///
/// Both the inner accumulation and the outer combine start from the pooled
/// zero and use multiply-then-add (two roundings), so every intermediate
/// value is bit-identical to `CompiledStencil::apply_at`, including the
/// `-0.0` cases a bare first multiply would miss.
///
/// `OUT` starts as `Const 0`. A term of at most [`MAX_CHAIN`] taps, none
/// included, is one [`Op::FmaChainW`] on `OUT`; a longer one is a run of
/// [`Op::FmaChain`]s on `ACC`, the first seeded from the zero, then one
/// [`Op::MulAddC`] into `OUT`. Taps are read straight from the state grids.
pub fn compile_linear<T: VmScalar>(terms: &[LinearTerm<T>]) -> Result<VmProgram<T>> {
    if terms.is_empty() {
        return Err(MscError::UnsupportedExpr(
            "cannot compile a stencil with no temporal terms".into(),
        ));
    }
    let mut pool = Pool {
        consts: Vec::new(),
        ix: HashMap::new(),
    };
    let zero = pool.get(T::default())?;
    let mut ops = vec![Op::Const {
        dst: OUT,
        idx: zero,
    }];
    let (mut n_regs, mut n_slots) = (1, 1);
    for t in terms {
        let slot = u16::try_from(t.slot)
            .map_err(|_| MscError::UnsupportedExpr("state slot index overflow".into()))?;
        if !t.taps.is_empty() {
            n_slots = n_slots.max(t.slot + 1);
        }
        let empty = Chain {
            n: 0,
            c: [0; MAX_CHAIN],
            slot: [slot; MAX_CHAIN],
            off: [0; MAX_CHAIN],
        };
        let mut chains = Vec::with_capacity(t.taps.len().div_ceil(MAX_CHAIN));
        for group in t.taps.chunks(MAX_CHAIN) {
            let mut taps = Chain {
                n: group.len() as u8,
                ..empty
            };
            for (k, &(off, coeff)) in group.iter().enumerate() {
                (taps.c[k], taps.off[k]) = (pool.get(coeff)?, off);
            }
            chains.push(taps);
        }
        let w = pool.get(t.weight)?;
        if chains.len() <= 1 {
            let taps = chains.pop().unwrap_or(empty);
            ops.push(Op::FmaChainW {
                dst: OUT,
                w,
                seed: zero,
                taps,
            });
            continue;
        }
        n_regs = 2;
        for (k, taps) in chains.into_iter().enumerate() {
            let seed = (k == 0).then_some(zero);
            ops.push(Op::FmaChain {
                dst: ACC,
                seed,
                taps,
            });
        }
        ops.push(Op::MulAddC {
            dst: OUT,
            c: w,
            b: ACC,
        });
    }
    let prog = VmProgram {
        ops,
        consts: pool.consts,
        n_regs,
        n_slots,
    };
    // Debug builds audit the bytecode once, right here, before it can
    // ever dispatch: def-before-use over the two registers, bounds on
    // every register/constant/slot index, and chain-length invariants.
    // Release builds skip the walk.
    #[cfg(debug_assertions)]
    if let Err(e) = prog.sanity_check(None) {
        panic!("compiled VM bytecode failed the static sanity pass: {e}");
    }
    Ok(prog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{VmScratch, CHUNK};

    /// Interpreter-order reference for the linear path.
    fn apply_ref<T: VmScalar>(terms: &[LinearTerm<T>], states: &[&[T]], base: usize) -> T {
        let mut out = T::default();
        for t in terms {
            let src = states[t.slot];
            let mut acc = T::default();
            for &(off, coeff) in &t.taps {
                acc = acc + coeff * src[(base as i64 + off) as usize];
            }
            out = out + t.weight * acc;
        }
        out
    }

    /// A deterministic stream of 64-bit values (SplitMix64).
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A value with varied exponents, or one of the special ones.
        fn value(&mut self) -> f64 {
            const SPECIAL: [f64; 4] = [0.0, -0.0, 1.0, -0.125];
            match self.below(6) {
                k @ 0..=3 => SPECIAL[k as usize],
                _ => ((self.next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e3,
            }
        }
    }

    fn ragged_grid<T: VmScalar>(n: usize, seed: u64) -> Vec<T> {
        // Deterministic, non-uniform values with varied exponents so
        // bit-identity failures actually show up.
        let mut mix = Mix(seed);
        (0..n)
            .map(|_| T::from_f64(((mix.next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e3))
            .collect()
    }

    const SLOTS: usize = 3;
    const REACH: i64 = 12;
    const BASE: usize = 16;
    const ROWS: [usize; 5] = [1, 63, 64, 65, 200];
    const TAP_COUNTS: [usize; 7] = [0, 1, 7, 8, 9, 16, 17];

    /// A term of `n` taps over a narrow offset range, so offsets come
    /// unordered and repeat.
    fn term<T: VmScalar>(mix: &mut Mix, n: usize) -> LinearTerm<T> {
        LinearTerm {
            slot: mix.below(SLOTS as u64) as usize,
            weight: T::from_f64(mix.value()),
            taps: (0..n)
                .map(|_| {
                    let off = mix.below(2 * REACH as u64 + 1) as i64 - REACH;
                    (off, T::from_f64(mix.value()))
                })
                .collect(),
        }
    }

    /// Ops the emitter owes a term list: `Const`, then one op per short
    /// term and a chain per eight taps plus the fold per long one.
    fn ops_for<T>(terms: &[LinearTerm<T>]) -> usize {
        let per_term = |n: usize| match n.div_ceil(MAX_CHAIN) {
            0 | 1 => 1,
            chains => chains + 1,
        };
        1 + terms.iter().map(|t| per_term(t.taps.len())).sum::<usize>()
    }

    /// Generated programs against `apply_ref`, bit for bit, on every row
    /// length around a chunk.
    fn generated_programs_match_the_oracle<T: VmScalar>(seed: u64) {
        let mut mix = Mix(seed);
        assert!(compile_linear::<T>(&[]).is_err());
        let grids: Vec<Vec<T>> = (0..SLOTS as u64)
            .map(|s| ragged_grid(BASE + 200 + 2 * REACH as usize, seed + s))
            .collect();
        let states: Vec<&[T]> = grids.iter().map(Vec::as_slice).collect();
        for n_terms in 1..=3 {
            for first in TAP_COUNTS {
                let mut terms = vec![term::<T>(&mut mix, first)];
                while terms.len() < n_terms {
                    let n = TAP_COUNTS[mix.below(TAP_COUNTS.len() as u64) as usize];
                    terms.push(term(&mut mix, n));
                }
                let prog = compile_linear(&terms).unwrap();
                let long = terms.iter().any(|t| t.taps.len() > MAX_CHAIN);
                assert_eq!(prog.n_ops(), ops_for(&terms));
                assert_eq!(prog.n_regs(), if long { 2 } else { 1 });
                let mut scratch = prog.scratch();
                for len in ROWS {
                    let mut out = vec![T::from_f64(f64::NAN); len];
                    prog.run_row(&states, BASE, &mut out, &mut scratch);
                    for (i, &got) in out.iter().enumerate() {
                        let want = apply_ref(&terms, &states, BASE + i);
                        assert_eq!(
                            got.to_f64().to_bits(),
                            want.to_f64().to_bits(),
                            "{n_terms} terms, first of {first} taps, row {len}, point {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn linear_program_is_bit_identical_to_interpreter_order() {
        for seed in [1, 2, 3] {
            generated_programs_match_the_oracle::<f64>(seed);
            generated_programs_match_the_oracle::<f32>(seed);
        }
    }

    #[test]
    fn rows_longer_than_one_chunk_match_pointwise_eval() {
        let terms = vec![LinearTerm {
            slot: 0,
            weight: 1.0,
            taps: vec![(-1, 0.25), (0, 0.5), (1, 0.25)],
        }];
        let prog: VmProgram<f64> = compile_linear(&terms).unwrap();
        let a = ragged_grid(3 * CHUNK + 10, 7);
        let states: Vec<&[f64]> = vec![&a];
        let mut out = vec![0.0; 2 * CHUNK + 31]; // deliberately ragged tail
        let mut scratch: VmScratch<f64> = prog.scratch();
        prog.run_row(&states, 2, &mut out, &mut scratch);
        for (i, &got) in out.iter().enumerate() {
            let want = apply_ref(&terms, &states, 2 + i);
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn short_terms_are_one_dispatch_and_constants_pooled() {
        // Two terms over the same slot with repeated coefficients: each
        // is one fused dispatch, and the pool dedups coefficients and
        // weights.
        let terms = vec![
            LinearTerm {
                slot: 0,
                weight: 0.5,
                taps: vec![(-1, 0.25), (0, 0.25), (1, 0.25)],
            },
            LinearTerm {
                slot: 0,
                weight: 0.5,
                taps: vec![(-1, 0.25), (1, 0.25)],
            },
        ];
        let prog: VmProgram<f64> = compile_linear(&terms).unwrap();
        let chains: Vec<u8> = prog
            .ops()
            .iter()
            .filter_map(|o| match o {
                Op::FmaChainW { taps, .. } => Some(taps.n),
                _ => None,
            })
            .collect();
        assert_eq!(chains, vec![3, 2], "one fused dispatch per term");
        assert_eq!((prog.n_ops(), prog.n_regs()), (3, 1));
        // Pool: 0.0, 0.25, 0.5 — dedup across taps and weights.
        assert_eq!(prog.n_consts(), 3);
    }

    #[test]
    fn a_long_term_accumulates_in_the_second_register() {
        let taps: Vec<(i64, f64)> = (-60..=60).map(|o| (o, 1.0 / 121.0)).collect();
        let terms = vec![LinearTerm {
            slot: 0,
            weight: 1.0,
            taps,
        }];
        let prog: VmProgram<f64> = compile_linear(&terms).unwrap();
        // Const, 16 chains (the first seeded), the fold.
        assert_eq!((prog.n_ops(), prog.n_regs()), (18, 2));
        let seeds: Vec<Option<u16>> = prog
            .ops()
            .iter()
            .filter_map(|o| match o {
                Op::FmaChain { seed, .. } => Some(*seed),
                _ => None,
            })
            .collect();
        assert_eq!(seeds.len(), 16);
        assert_eq!(seeds[0], Some(0));
        assert!(seeds[1..].iter().all(Option::is_none));
        assert!(matches!(
            prog.ops().last(),
            Some(Op::MulAddC {
                dst: OUT,
                b: ACC,
                ..
            })
        ));
    }
}
