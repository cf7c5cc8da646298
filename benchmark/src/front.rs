//! Source text -> checked program -> execution plan: the front half of
//! every operation, each public call under its own span. Also the
//! bit-for-bit comparison every result grid goes through.

use crate::spans::Recorder;
use msc_core::parse::parse_unchecked;
use msc_core::prelude::StencilProgram;
use msc_core::schedule::{ExecPlan, Target};
use msc_exec::Grid;

#[derive(Debug)]
pub struct Front {
    pub program: StencilProgram,
    pub target: Target,
    pub plan: ExecPlan,
}

/// Parse, lint (a deny finding is an error here: no workload plants one
/// on this path) and lower the program's own schedule over its grid.
pub fn front(rec: &Recorder, op: u64, source: &str) -> Result<Front, String> {
    let parsed = {
        let _s = rec.span("core.parse", op);
        parse_unchecked(source).map_err(|e| format!("parse: {e}"))?
    };
    let target = parsed.target.unwrap_or(Target::Cpu);
    let program = parsed.program;
    {
        let _s = rec.span("lint.lint", op);
        let report = msc_lint::lint_program(&program, Some(target));
        if report.has_deny() {
            return Err(format!(
                "lint denied `{}`: {}",
                program.name,
                report.render_denies()
            ));
        }
    }
    let plan = lower(rec, op, &program, &program.grid.shape)?;
    Ok(Front {
        program,
        target,
        plan,
    })
}

/// Lower the program's schedule over `shape` (a rank's sub-grid, or the
/// whole grid).
pub fn lower(
    rec: &Recorder,
    op: u64,
    program: &StencilProgram,
    shape: &[usize],
) -> Result<ExecPlan, String> {
    let _s = rec.span("core.lower", op);
    ExecPlan::lower(&program.stencil.kernels[0].schedule, shape.len(), shape)
        .map_err(|e| format!("lower: {e}"))
}

/// Point updates one solve performs.
pub fn point_updates(program: &StencilProgram) -> f64 {
    program.grid.shape.iter().product::<usize>() as f64 * program.timesteps as f64
}

/// Every padded cell, bit for bit. `-0.0 == 0.0` and `NaN != NaN` make
/// float equality the wrong tool for "the same result".
pub fn same_bits(a: &Grid<f64>, b: &Grid<f64>) -> bool {
    a.shape == b.shape
        && a.as_slice().len() == b.as_slice().len()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{seeded_grid, Tally};

    #[test]
    fn one_flipped_bit_fails_the_gate() {
        let oracle = seeded_grid(&[8, 8], &[1, 1], 7);
        let mut out = oracle.clone();
        let mut tally = Tally::default();
        tally.note(same_bits(&out, &oracle));
        assert_eq!(tally.failed, 0);

        let cell = &mut out.as_mut_slice()[37];
        *cell = f64::from_bits(cell.to_bits() ^ 1);
        tally.note(same_bits(&out, &oracle));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(tally.failed_share() > 0.0);
        assert_ne!(tally.exit_code(), 0);
    }

    #[test]
    fn negative_zero_is_not_zero() {
        let a = Grid::<f64>::zeros(&[2, 2], &[0, 0]);
        let mut b = a.clone();
        b.as_mut_slice()[0] = -0.0;
        assert!(!same_bits(&a, &b));
    }

    #[test]
    fn the_deny_input_is_denied_and_a_run_input_is_clean() {
        let rec = Recorder::new();
        let deny = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/inputs/deny.msc"))
            .unwrap();
        assert!(front(&rec, 0, &deny).unwrap_err().contains("MSC-L101"));
        let probe =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/inputs/probe.msc"))
                .unwrap();
        let f = front(&rec, 0, &probe).unwrap();
        assert_eq!(f.plan.num_tiles(), 4 * 2);
        assert_eq!(point_updates(&f.program), 32.0 * 32.0 * 32.0 * 8.0);
    }
}
