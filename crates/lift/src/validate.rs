//! Translation validation (pass 4 of the lift pipeline, DESIGN.md
//! §16.4).
//!
//! The lifted program is executed through the normal lint → schedule →
//! execute pipeline, and differenced **bit-for-bit** against a direct
//! interpreter that evaluates the original C expression tree (the
//! [`RExpr`] the affine pass preserved) with the C loop nest's
//! ping-pong semantics. Every seed is checked on every execution tier
//! (interp, bytecode VM, specialized), so a validation pass
//! certifies the whole lowering stack, not just the lifter.
//!
//! Bit-exactness is achievable — not just approximable — because the
//! affine pass only admits expressions whose linearization preserves
//! the rounding sequence (sum-of-products in canonical tap order; see
//! `affine.rs`), and the tiers are bit-identical to the interp oracle
//! by construction. Any residue is a lifter bug and surfaces as
//! `MSC-L508`.

use crate::affine::RExpr;
use crate::recover::Lifted;
use crate::LiftError;
use msc_core::{ExecPlan, Schedule};
use msc_exec::Boundary::Dirichlet;
use msc_exec::{ExecTier, Executor, Grid, TimeLoop};
use msc_lint::LintCode;
use std::borrow::Cow;
use std::iter::zip;
use std::sync::Arc;

/// Default seeds for `mscc lift` and the corpus tests: three
/// independent random grids per tier.
pub const DEFAULT_SEEDS: [u64; 3] = [11, 12, 13];

/// Summary of a successful validation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationOutcome {
    /// Seeds validated.
    pub seeds: Vec<u64>,
    /// Execution tiers each seed was checked on.
    pub tiers: usize,
    /// Total padded cells compared bit-for-bit.
    pub cells_compared: usize,
}

/// A whole-row operation `out[i] = out[i] ∘ rhs[i]`.
type RowOp = fn(&mut [f64], &[f64]);

/// The preserved C expression with every access resolved, once, to a flat
/// offset into the padded buffer, and a scratch row per binary node for its
/// right operand. The tree keeps the source's shape, so each cell still
/// goes through the source's operations in the source's order; only the
/// loop over a row's cells moved inside the nodes. A scaled tap `c*A[o]`
/// or `A[o]*c` (one product: IEEE multiplication commutes bit for bit, `c`
/// is finite) is one node, and `x ± c*A[o]` is another.
enum RowExpr {
    Num(f64),
    At(isize),
    Scaled(f64, isize),
    /// `x - c*A[o]` if the flag is set, else `x + c*A[o]`.
    Tap(bool, Box<RowExpr>, f64, isize),
    Neg(Box<RowExpr>),
    Bin(RowOp, Box<RowExpr>, Box<RowExpr>, Vec<f64>),
}

impl RowExpr {
    fn of(e: &RExpr, strides: &[usize], len: usize) -> RowExpr {
        let flat = |off: &[i64]| {
            zip(off, strides)
                .map(|(&o, &s)| o as isize * s as isize)
                .sum()
        };
        let scaled = |e: &RExpr| match e {
            RExpr::Mul(a, b) => match (&**a, &**b) {
                (RExpr::Num(c), RExpr::Access(o)) | (RExpr::Access(o), RExpr::Num(c)) => {
                    c.is_finite().then(|| (*c, flat(o)))
                }
                _ => None,
            },
            _ => None,
        };
        let boxed = |e: &RExpr| Box::new(RowExpr::of(e, strides, len));
        let bin = |op: RowOp, a, b| RowExpr::Bin(op, boxed(a), boxed(b), vec![0.0; len]);
        match (e, scaled(e)) {
            (_, Some((c, off))) => RowExpr::Scaled(c, off),
            (RExpr::Add(x, tap) | RExpr::Sub(x, tap), _) if scaled(tap).is_some() => {
                let (c, off) = scaled(tap).expect("a scaled tap");
                RowExpr::Tap(matches!(e, RExpr::Sub(..)), boxed(x), c, off)
            }
            (RExpr::Num(v), _) => RowExpr::Num(*v),
            (RExpr::Access(off), _) => RowExpr::At(flat(off)),
            (RExpr::Neg(a), _) => RowExpr::Neg(boxed(a)),
            (RExpr::Add(a, b), _) => bin(|o, r| zip(o, r).for_each(|(o, r)| *o += r), a, b),
            (RExpr::Sub(a, b), _) => bin(|o, r| zip(o, r).for_each(|(o, r)| *o -= r), a, b),
            (RExpr::Mul(a, b), _) => bin(|o, r| zip(o, r).for_each(|(o, r)| *o *= r), a, b),
        }
    }

    /// Evaluate the node for the `out.len()` unit-stride cells of `src`
    /// starting at flat index `base`.
    fn eval(&mut self, src: &[f64], base: usize, out: &mut [f64]) {
        let len = out.len();
        let row = |off: isize| &src[base.wrapping_add_signed(off)..][..len];
        match self {
            RowExpr::Num(v) => out.fill(*v),
            RowExpr::At(off) => out.copy_from_slice(row(*off)),
            RowExpr::Scaled(c, off) => zip(out, row(*off)).for_each(|(o, a)| *o = *c * a),
            RowExpr::Tap(sub, x, c, off) => {
                x.eval(src, base, out);
                match sub {
                    true => zip(out, row(*off)).for_each(|(o, a)| *o -= *c * a),
                    false => zip(out, row(*off)).for_each(|(o, a)| *o += *c * a),
                }
            }
            RowExpr::Neg(a) => {
                a.eval(src, base, out);
                out.iter_mut().for_each(|o| *o = -*o);
            }
            RowExpr::Bin(op, a, b, rhs) => {
                a.eval(src, base, out);
                b.eval(src, base, rhs);
                op(out, rhs);
            }
        }
    }
}

/// Run the original loop nest directly: ping-pong buffers, halo frozen
/// at its initial values (Dirichlet), interior rewritten every step, one
/// interior row at a time.
pub fn direct_reference(lifted: &Lifted, init: &Grid<f64>, timesteps: usize) -> Grid<f64> {
    let last = init.ndim() - 1;
    let len = init.shape[last];
    let mut rhs = RowExpr::of(&lifted.nest.rhs, &init.strides, len);
    // Flat index of the first interior cell of every row.
    let mut rows = Vec::new();
    init.for_each_interior(|p| {
        if p[last] == 0 {
            rows.push(init.index(p));
        }
    });
    let mut cur = init.clone();
    let mut next = init.clone();
    for _ in 0..timesteps {
        for &base in &rows {
            let out = &mut next.as_mut_slice()[base..base + len];
            rhs.eval(cur.as_slice(), base, out);
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// Validate `lifted` on every seed across all three execution tiers,
/// after one check of the lifted program and one compile per tier. An
/// in-place nest is refused first: it is order-dependent and has no
/// well-defined reference. So is an empty seed list: it compares nothing.
pub fn validate(lifted: &Lifted, seeds: &[u64]) -> Result<ValidationOutcome, LiftError> {
    let ctx = format!("program `{}`", lifted.program.name);
    let code = LintCode::LiftValidationMismatch;
    let refuse = |m: &str, help: &str| LiftError::new(code, m.into(), ctx.clone(), help.into());
    if lifted.nest.in_place {
        let m = "in-place nests are order-dependent; there is no reference to validate against";
        let help = "rewrite the nest with separate input and output arrays";
        return Err(refuse(m, help));
    }
    if seeds.is_empty() {
        let m = "no seed was given, so validation would compare nothing";
        let help = "pass at least one seed (`DEFAULT_SEEDS` has three)";
        return Err(refuse(m, help));
    }
    // A refusal with no one-line fix.
    let refused = |m: String| refuse(&m, "");
    let checked = msc_lint::check(&lifted.program, None)
        .map_err(|r| refused(format!("lint rejected:\n{}", r.render_denies())))?;
    let grid = &lifted.program.grid;
    // Single-tile plan: always legal for any shape, and it still drives
    // the tiered executor (the tier choice is what is under test here,
    // not the tiling) — thread-parallel bit-exactness is covered by the
    // exec crate's own differential suite.
    let plan = ExecPlan::lower(&Schedule::default(), grid.ndim(), &grid.shape)
        .map_err(|e| refused(format!("could not lower an execution plan: {e}")))?;
    let exec = Executor::Tiled(plan);
    let failed =
        |tier: ExecTier, e| refused(format!("lifted program failed on tier {tier:?}: {e}"));
    let (mut stencils, mut cells) = (vec![], 0usize);
    for &seed in seeds {
        let init: Grid<f64> = Grid::random(&grid.shape, &grid.halo, seed);
        // Every seed has the first one's layout, so each tier compiles once.
        if stencils.is_empty() {
            for tier in [ExecTier::Interp, ExecTier::Vm, ExecTier::Specialized] {
                let stencil = TimeLoop::compile(&checked, &init, tier);
                stencils.push((tier, stencil.map_err(|e| failed(tier, e))?));
            }
        }
        let expected = direct_reference(lifted, &init, lifted.program.timesteps);
        for (tier, stencil) in &stencils {
            let seeded = Cow::Borrowed(&init);
            let (got, _) = TimeLoop::admit_compiled(Arc::clone(stencil), &exec, seeded, Dirichlet)
                .and_then(|run| run.run(lifted.program.timesteps))
                .map_err(|e| failed(*tier, e))?;
            let (exp, act) = (expected.as_slice(), got.as_slice());
            debug_assert_eq!(exp.len(), act.len());
            let (mut bad, mut max_abs) = (0usize, 0.0f64);
            for (&e, &a) in zip(exp, act).filter(|(e, a)| e.to_bits() != a.to_bits()) {
                bad += 1;
                max_abs = max_abs.max((e - a).abs());
            }
            if bad > 0 {
                return Err(LiftError::new(
                    LintCode::LiftValidationMismatch,
                    format!(
                        "lifted program diverges from the C nest on tier {tier:?}, \
                         seed {seed}: {bad}/{} cells differ (max |Δ| = {max_abs:e})",
                        exp.len()
                    ),
                    format!("program `{}`", lifted.program.name),
                    "the tap sum must be written in canonical (lexicographic \
                     offset) order so the lifted fold replays the C rounding \
                     sequence"
                        .into(),
                ));
            }
            cells += exp.len();
        }
    }
    Ok(ValidationOutcome {
        seeds: seeds.to_vec(),
        tiers: stencils.len(),
        cells_compared: cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lift_source;
    use msc_exec::{run_program_tier, Boundary};

    /// The per-cell evaluator `direct_reference` ran until it learned to
    /// take a row per node: the preserved C expression at interior point
    /// `pos` of `g`, one recursive walk per cell. Kept as the row
    /// evaluator's own oracle.
    fn eval(e: &RExpr, g: &Grid<f64>, pos: &[usize]) -> f64 {
        match e {
            RExpr::Num(v) => *v,
            RExpr::Access(off) => g.get_rel(pos, off),
            RExpr::Add(a, b) => eval(a, g, pos) + eval(b, g, pos),
            RExpr::Sub(a, b) => eval(a, g, pos) - eval(b, g, pos),
            RExpr::Mul(a, b) => eval(a, g, pos) * eval(b, g, pos),
            RExpr::Neg(a) => -eval(a, g, pos),
        }
    }

    fn per_cell_reference(rhs: &RExpr, init: &Grid<f64>, timesteps: usize) -> Grid<f64> {
        let mut cur = init.clone();
        let mut next = init.clone();
        let mut cells: Vec<Vec<usize>> = Vec::new();
        cur.for_each_interior(|p| cells.push(p.to_vec()));
        for _ in 0..timesteps {
            for p in &cells {
                let v = eval(rhs, &cur, p);
                next.set(p, v);
            }
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    /// splitmix64: the generated trees must be the same on every run.
    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// Small literals (magnitude <= 2, so 2^8 factors cannot overflow: no
    /// NaN whose payload the two evaluators could order differently),
    /// `-0.0` and `0.0` among them.
    const LITERALS: [f64; 8] = [-0.0, 0.0, 1.0, -1.0, 0.1, -0.3, 2.0, 1.0e-3];

    fn access(rng: &mut Rng, halo: &[usize]) -> RExpr {
        RExpr::Access(
            halo.iter()
                .map(|&h| rng.below(2 * h + 1) as i64 - h as i64)
                .collect(),
        )
    }

    /// A random nest of `Add` / `Sub` / `Mul` / `Neg` over accesses within
    /// `halo` and [`LITERALS`].
    fn tree(rng: &mut Rng, depth: usize, halo: &[usize]) -> RExpr {
        if depth == 0 || rng.below(5) == 0 {
            return if rng.below(3) == 0 {
                RExpr::Num(LITERALS[rng.below(LITERALS.len())])
            } else {
                access(rng, halo)
            };
        }
        let sub = |rng: &mut Rng| Box::new(tree(rng, depth - 1, halo));
        match rng.below(4) {
            0 => RExpr::Add(sub(rng), sub(rng)),
            1 => RExpr::Sub(sub(rng), sub(rng)),
            2 => RExpr::Mul(sub(rng), sub(rng)),
            _ => RExpr::Neg(sub(rng)),
        }
    }

    /// A sum of `taps` products, as C writes a stencil: each a weight from
    /// [`LITERALS`] times an access, in either operand order, joined by
    /// `+` or `-`, with the scaled tap on either side of each join.
    fn chain(rng: &mut Rng, taps: usize, halo: &[usize]) -> RExpr {
        let weight = Box::new(RExpr::Num(LITERALS[rng.below(LITERALS.len())]));
        let at = Box::new(access(rng, halo));
        let tap = match rng.below(2) {
            0 => RExpr::Mul(weight, at),
            _ => RExpr::Mul(at, weight),
        };
        if taps == 1 {
            return tap;
        }
        let (rest, tap) = (Box::new(chain(rng, taps - 1, halo)), Box::new(tap));
        let (a, b) = match rng.below(4) {
            0 => (tap, rest),
            _ => (rest, tap),
        };
        match rng.below(2) {
            0 => RExpr::Add(a, b),
            _ => RExpr::Sub(a, b),
        }
    }

    #[test]
    fn row_evaluation_equals_per_cell_evaluation_bit_for_bit() {
        let base = lifted(
            "double A[10]; double B[10];
             for (int i = 1; i < 9; i++) B[i] = 0.5*A[i-1] + 0.5*A[i+1];",
        );
        let mut rng = Rng(23);
        let (mut deepest, mut unit_rows, mut negative_zeros) = (0, 0, [0, 0]);
        // Cases 0..400 draw trees, 400..800 tap chains.
        for case in 0..800 {
            let ndim = 1 + case % 3;
            // Every fourth grid has rows of one cell; halos run 0..=2 per
            // dimension, so some trees can only read the centre.
            let shape: Vec<usize> = (0..ndim)
                .map(|d| {
                    if d == ndim - 1 && case % 4 == 0 {
                        1
                    } else {
                        1 + rng.below(7)
                    }
                })
                .collect();
            let halo: Vec<usize> = (0..ndim).map(|_| rng.below(3)).collect();
            let depth = 1 + case % 8;
            let rhs = match case < 400 {
                true => tree(&mut rng, depth, &halo),
                false => chain(&mut rng, depth + case % 5, &halo),
            };
            let init: Grid<f64> = Grid::random(&shape, &halo, case as u64);
            let mut l = base.clone();
            l.nest.rhs = rhs;
            let rows = direct_reference(&l, &init, 3);
            let cells = per_cell_reference(&l.nest.rhs, &init, 3);
            assert_eq!((&rows.shape, &rows.halo), (&cells.shape, &cells.halo));
            for (i, (r, c)) in rows.as_slice().iter().zip(cells.as_slice()).enumerate() {
                assert!(!c.is_nan(), "case {case}: the generator must not make NaNs");
                assert_eq!(
                    r.to_bits(),
                    c.to_bits(),
                    "case {case} ({shape:?} halo {halo:?} depth {depth}), padded cell {i}: {r:e} vs {c:e}\n{:?}",
                    l.nest.rhs
                );
                negative_zeros[case / 400] += usize::from(c.to_bits() == (-0.0f64).to_bits());
            }
            deepest = deepest.max(depth);
            unit_rows += usize::from(shape[ndim - 1] == 1);
        }
        // The generators reached what the test is named for.
        assert_eq!(deepest, 8);
        assert!(
            unit_rows >= 200 && negative_zeros.iter().all(|&n| n > 0),
            "{unit_rows} {negative_zeros:?}"
        );
    }

    fn lifted(src: &str) -> Lifted {
        let out = lift_source(src, "t");
        assert!(!out.report.has_deny(), "{}", out.report.render());
        out.lifted.expect("lifts")
    }

    #[test]
    fn canonical_jacobi_validates_on_all_tiers() {
        let l = lifted(
            "double A[12][12]; double B[12][12];
             void jac(void) {
               for (int i = 1; i < 11; i++)
                 for (int j = 1; j < 11; j++)
                   B[i][j] = 0.25*A[i-1][j] + 0.2*A[i][j-1] + 0.1*A[i][j]
                           + 0.2*A[i][j+1] + 0.25*A[i+1][j];
             }",
        );
        let v = validate(&l, &DEFAULT_SEEDS).unwrap();
        assert_eq!(v.tiers, 3);
        assert_eq!(v.seeds, DEFAULT_SEEDS.to_vec());
        assert!(v.cells_compared > 0);
    }

    #[test]
    fn an_empty_seed_list_is_refused_as_l508() {
        let l = lifted(
            "double A[10]; double B[10];
             for (int i = 1; i < 9; i++) B[i] = 0.5*A[i-1] + 0.5*A[i+1];",
        );
        let err = validate(&l, &[]).unwrap_err();
        assert_eq!(err.code, LintCode::LiftValidationMismatch);
        assert!(err.message.contains("no seed was given"), "{}", err.message);
    }

    #[test]
    fn tiers_count_the_tiers_that_ran() {
        let l = lifted(
            "double A[10]; double B[10];
             for (int i = 1; i < 9; i++) B[i] = 0.5*A[i-1] + 0.5*A[i+1];",
        );
        let padded = Grid::<f64>::for_tensor(&l.program.grid).as_slice().len();
        for seeds in [&DEFAULT_SEEDS[..1], &DEFAULT_SEEDS[..]] {
            let v = validate(&l, seeds).unwrap();
            assert_eq!(v.tiers, 3);
            assert_eq!(v.cells_compared, v.tiers * seeds.len() * padded);
        }
    }

    /// The four `compile_many` lift inputs: one lint and one compile per
    /// tier each, however many seeds, and the cells compared before the
    /// compiles were shared.
    #[test]
    fn validation_lints_once_and_compiles_each_tier_once() {
        const CELLS: [(&str, usize); 4] = [
            ("jacobi2d.c", 10404),
            ("jacobi3d.c", 52488),
            ("star27.c", 15552),
            ("varcoef2d.c", 11664),
        ];
        let dir =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../benchmark/inputs/lift");
        for (name, cells) in CELLS {
            let text = std::fs::read_to_string(dir.join(name)).unwrap();
            let l = lift_source(&text, name.trim_end_matches(".c"))
                .lifted
                .unwrap();
            let hub = msc_trace::TelemetryHub::new();
            hub.set_enabled(true);
            let v = {
                let _on = msc_trace::install_thread_hub(Arc::clone(&hub));
                validate(&l, &DEFAULT_SEEDS).unwrap()
            };
            let (spans, _) = hub.collect_spans();
            let count = |span: &str| spans.iter().filter(|s| s.name == span).count();
            assert_eq!((count("lint"), count("stencil_compile")), (1, 3), "{name}");
            assert!(
                hub.snapshot().get(msc_trace::Counter::VmCompileNanos) > 0,
                "{name}"
            );
            assert_eq!((v.tiers, v.cells_compared), (3, cells), "{name}");
        }
    }

    #[test]
    fn subtraction_and_negation_validate_bit_exactly() {
        let l = lifted(
            "double A[10]; double B[10];
             for (int i = 2; i < 8; i++)
               B[i] = 0.1*A[i-2] - 0.3*A[i-1] + A[i] - A[i+1] + -0.2*A[i+2];",
        );
        validate(&l, &DEFAULT_SEEDS).unwrap();
    }

    #[test]
    fn non_canonical_tap_order_is_caught_as_l508() {
        // Three taps written in reverse offset order: the lifted fold
        // (canonical order) re-associates the additions, so the rounding
        // sequences differ and translation validation must refuse.
        let l = lifted(
            "double A[10]; double B[10];
             for (int i = 1; i < 9; i++)
               B[i] = 0.3*A[i+1] + 0.3*A[i] + 0.3*A[i-1];",
        );
        let err = validate(&l, &DEFAULT_SEEDS).unwrap_err();
        assert_eq!(err.code, LintCode::LiftValidationMismatch);
        assert_eq!(err.code.as_str(), "MSC-L508");
        assert!(err.help.contains("canonical"), "{}", err.help);
        // `validate` stops at the first tier that differs; each of the
        // three differs from the nest's own rounding sequence.
        let g = &l.program.grid;
        let plan = ExecPlan::lower(&Schedule::default(), g.ndim(), &g.shape).unwrap();
        let init: Grid<f64> = Grid::random(&g.shape, &g.halo, DEFAULT_SEEDS[0]);
        let expected = direct_reference(&l, &init, l.program.timesteps);
        for tier in [ExecTier::Interp, ExecTier::Vm, ExecTier::Specialized] {
            let exec = Executor::Tiled(plan.clone());
            let (got, _) =
                run_program_tier(&l.program, &exec, &init, Boundary::Dirichlet, tier).unwrap();
            let same = expected
                .as_slice()
                .iter()
                .zip(got.as_slice())
                .all(|(e, a)| e.to_bits() == a.to_bits());
            assert!(
                !same,
                "tier {tier:?} replayed a re-associated sum bit for bit"
            );
        }
    }
}
