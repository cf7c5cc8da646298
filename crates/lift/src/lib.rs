//! msc-lift — static lifting of legacy C loop nests into verified
//! stencil IR (DESIGN.md §16).
//!
//! The lifter ingests a restricted C `for`-nest kernel and emits a
//! semantically equivalent [`msc_core::StencilProgram`], in four passes:
//!
//! 1. **Parse** ([`lex`], [`ast`]) — a recursive-descent parser over the
//!    supported subset, producing an AST with source spans.
//! 2. **Affine analysis** ([`affine`]) — every subscript normalized to
//!    `loop_var + constant`, the RHS linearized into a source-order tap
//!    list; non-affine or non-linear input is rejected with typed
//!    `MSC-L5xx` diagnostics.
//! 3. **Footprint recovery** ([`recover`]) — offset sets mapped onto the
//!    IR: grid shape and halo from the loop margins, taps onto a
//!    [`msc_core::Kernel`], time slots (`t-1 → t` two-buffer vs
//!    in-place) from the array aliasing.
//! 4. **Translation validation** ([`validate`]) — the lifted program is
//!    executed through the normal lint → schedule → execute pipeline and
//!    differenced **bit-for-bit** against direct interpretation of the
//!    original loop nest on random grids, across all execution tiers.
//!
//! Every failure mode is a [`msc_lint::Diagnostic`] carried in a
//! [`msc_lint::Report`], so `mscc lift` renders and `--json`-serializes
//! lift errors exactly like DSL lint errors, and the same deny gate
//! applies.

pub mod affine;
pub mod ast;
pub mod lex;
pub mod recover;
pub mod validate;

pub use affine::{analyze, AffineNest, LinTap, RExpr};
pub use ast::{parse, CFile};
pub use msc_core::expr::{MAX_EXPR_DEPTH, MAX_EXPR_NODES};
pub use recover::{recover, Lifted, LIFT_TIMESTEPS};
pub use validate::{validate, ValidationOutcome, DEFAULT_SEEDS};

use msc_lint::{lint_program, Diagnostic, LintCode, Report};

/// A typed lift failure: a lint code plus the message/context/help
/// triple that [`msc_lint::Diagnostic`] wants. Every pass before the
/// linter reports through this type.
#[derive(Debug, Clone, PartialEq)]
pub struct LiftError {
    pub code: LintCode,
    pub message: String,
    pub context: String,
    pub help: String,
}

impl LiftError {
    pub fn new(code: LintCode, message: String, context: String, help: String) -> LiftError {
        LiftError {
            code,
            message,
            context,
            help,
        }
    }

    /// Convert into the lint pipeline's diagnostic type.
    pub fn to_diagnostic(&self) -> Diagnostic {
        Diagnostic::new(
            self.code,
            self.message.clone(),
            self.context.clone(),
            self.help.clone(),
        )
    }
}

impl std::fmt::Display for LiftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]: {}", self.code, self.context, self.message)
    }
}

impl std::error::Error for LiftError {}

/// Everything `mscc lift` needs: the diagnostics report (lift errors
/// merged with the ordinary lint passes) and, when lifting succeeded,
/// the recovered program plus its affine summary.
#[derive(Debug)]
pub struct LiftOutcome {
    pub report: Report,
    pub lifted: Option<Lifted>,
}

/// Lift C source to a stencil program. `fallback_name` names the
/// program when the nest is not wrapped in a `void name() {}` function
/// (callers pass the file stem).
///
/// The returned report always exists; `lifted` is `Some` iff parsing,
/// affine analysis, and footprint recovery all succeeded. The lifted
/// program has additionally been run through [`msc_lint::lint_program`],
/// so downstream races (`MSC-L3xx`) and halo/window findings surface in
/// the same report — check [`Report::has_deny`] before executing.
pub fn lift_source(source: &str, fallback_name: &str) -> LiftOutcome {
    let mut report = Report::new(fallback_name);
    let lifted = ast::parse(source)
        .and_then(|file| affine::analyze(&file, fallback_name))
        .and_then(recover::recover);
    match lifted {
        Err(e) => {
            report.push(e.to_diagnostic());
            LiftOutcome {
                report,
                lifted: None,
            }
        }
        Ok(lifted) => {
            // Re-report under the program's real name and run the
            // ordinary lint passes over the recovered IR, so halo/window
            // findings and in-place races surface alongside lift codes.
            let report = lint_program(&lifted.program, None);
            LiftOutcome {
                report,
                lifted: Some(lifted),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const JACOBI: &str = "
        double A[10][10];
        double B[10][10];
        void jacobi(void) {
          for (int i = 1; i < 9; i++)
            for (int j = 1; j < 9; j++)
              B[i][j] = 0.2*A[i-1][j] + 0.2*A[i][j-1] + 0.2*A[i][j]
                      + 0.2*A[i][j+1] + 0.2*A[i+1][j];
        }";

    #[test]
    fn lift_source_produces_a_clean_program() {
        let out = lift_source(JACOBI, "fallback");
        assert!(out.report.is_clean(), "{}", out.report.render());
        let lifted = out.lifted.expect("lifted");
        assert_eq!(lifted.program.name, "jacobi");
        assert_eq!(lifted.program.grid.shape, vec![8, 8]);
        assert_eq!(lifted.program.grid.halo, vec![1, 1]);
        assert_eq!(lifted.program.grid.time_window, 2);
    }

    #[test]
    fn lift_errors_land_in_the_report() {
        let out = lift_source("for (int i = 1; i < 9; i++) A[i] = A[i*i];", "bad");
        assert!(out.lifted.is_none());
        assert!(out.report.has_deny());
        assert!(out.report.has_code(LintCode::LiftNonAffineSubscript));
    }

    #[test]
    fn in_place_lift_is_denied_by_the_ordinary_lint_passes() {
        let out = lift_source(
            "double A[10][10];
             void gs(void) {
               for (int i = 1; i < 9; i++)
                 for (int j = 1; j < 9; j++)
                   A[i][j] = 0.25*A[i-1][j] + 0.25*A[i][j-1]
                           + 0.25*A[i][j+1] + 0.25*A[i+1][j];
             }",
            "gs",
        );
        assert!(out.lifted.is_some(), "in-place nests still lift");
        assert!(out.report.has_deny(), "…but the race lints deny them");
        assert!(
            out.report.has_code(LintCode::WindowTooShallow)
                || out.report.has_code(LintCode::InPlaceOrderDependence),
            "{}",
            out.report.render()
        );
    }
}
