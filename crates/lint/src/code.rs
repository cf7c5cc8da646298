//! Stable lint codes. Codes are grouped by family (`MSC-L1xx` halo,
//! `MSC-L2xx` time window, `MSC-L3xx` parallel races, `MSC-L4xx`
//! capacity/decomposition, `MSC-L5xx` C lifting) and are part of the
//! tool's public contract:
//! fixtures, CI greps and downstream tooling match on the code string, so
//! codes are never renumbered or reused.

use crate::diag::Severity;

/// Every lint the verifier can emit. See DESIGN.md §10 for the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintCode {
    /// MSC-L101: declared halo narrower than the inferred footprint.
    HaloTooNarrow,
    /// MSC-L102: declared halo wider than any access reaches.
    HaloOversized,
    /// MSC-L201: sliding time window shallower than the deepest read.
    WindowTooShallow,
    /// MSC-L202: sliding time window deeper than any read requires.
    WindowOversized,
    /// MSC-L301: `parallel()` while the window aliases read and write
    /// states — threads read cells other threads are overwriting.
    ParallelWindowRace,
    /// MSC-L302: window aliasing without `parallel()` — the sweep is an
    /// in-place (Gauss–Seidel-style) update whose result depends on tile
    /// traversal order.
    InPlaceOrderDependence,
    /// MSC-L303: more `parallel()` threads than tiles along the
    /// parallelized axis.
    ThreadsExceedTiles,
    /// MSC-L401: `cache_read`/`cache_write` staging buffers exceed the
    /// target's SPM capacity.
    SpmOverflow,
    /// MSC-L402: innermost DMA rows below the startup-dominated
    /// threshold.
    DmaRowTooShort,
    /// MSC-L403: grid extent not divisible by the MPI process grid.
    MpiGridIndivisible,
    /// MSC-L404: per-rank sub-extent smaller than the halo depth.
    MpiSubgridTooNarrow,
    /// MSC-L501: the C source does not lex/parse in the supported
    /// subset (see DESIGN.md §16 for the grammar).
    LiftSyntaxError,
    /// MSC-L502: an array subscript is not affine in the loop
    /// variables (`var + integer constant` per dimension).
    LiftNonAffineSubscript,
    /// MSC-L503: loop structure outside the supported subset
    /// (non-unit step, non-constant bounds, or loop order that does
    /// not match the subscript order).
    LiftUnsupportedLoop,
    /// MSC-L504: statement or expression form the lifter cannot
    /// summarize (multiple stores, non-linear arithmetic, calls).
    LiftUnsupportedConstruct,
    /// MSC-L505: accesses disagree on array rank or extents.
    LiftShapeMismatch,
    /// MSC-L506: interior margins are asymmetric, non-uniform across
    /// dimensions, or narrower than the stencil's reach.
    LiftMarginMismatch,
    /// MSC-L507: an expression nested or sized beyond the caps every
    /// front end keeps (hostile or generated input).
    LiftNestTooDeep,
    /// MSC-L508: translation validation failed — the lifted program
    /// is not bit-identical to direct interpretation of the loop nest.
    LiftValidationMismatch,
}

impl LintCode {
    /// The stable code string (`MSC-Lnnn`).
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::HaloTooNarrow => "MSC-L101",
            LintCode::HaloOversized => "MSC-L102",
            LintCode::WindowTooShallow => "MSC-L201",
            LintCode::WindowOversized => "MSC-L202",
            LintCode::ParallelWindowRace => "MSC-L301",
            LintCode::InPlaceOrderDependence => "MSC-L302",
            LintCode::ThreadsExceedTiles => "MSC-L303",
            LintCode::SpmOverflow => "MSC-L401",
            LintCode::DmaRowTooShort => "MSC-L402",
            LintCode::MpiGridIndivisible => "MSC-L403",
            LintCode::MpiSubgridTooNarrow => "MSC-L404",
            LintCode::LiftSyntaxError => "MSC-L501",
            LintCode::LiftNonAffineSubscript => "MSC-L502",
            LintCode::LiftUnsupportedLoop => "MSC-L503",
            LintCode::LiftUnsupportedConstruct => "MSC-L504",
            LintCode::LiftShapeMismatch => "MSC-L505",
            LintCode::LiftMarginMismatch => "MSC-L506",
            LintCode::LiftNestTooDeep => "MSC-L507",
            LintCode::LiftValidationMismatch => "MSC-L508",
        }
    }

    /// The pass family the code belongs to.
    pub fn family(self) -> &'static str {
        match self {
            LintCode::HaloTooNarrow | LintCode::HaloOversized => "halo",
            LintCode::WindowTooShallow | LintCode::WindowOversized => "window",
            LintCode::ParallelWindowRace
            | LintCode::InPlaceOrderDependence
            | LintCode::ThreadsExceedTiles => "race",
            LintCode::SpmOverflow
            | LintCode::DmaRowTooShort
            | LintCode::MpiGridIndivisible
            | LintCode::MpiSubgridTooNarrow => "capacity",
            LintCode::LiftSyntaxError
            | LintCode::LiftNonAffineSubscript
            | LintCode::LiftUnsupportedLoop
            | LintCode::LiftUnsupportedConstruct
            | LintCode::LiftShapeMismatch
            | LintCode::LiftMarginMismatch
            | LintCode::LiftNestTooDeep
            | LintCode::LiftValidationMismatch => "lift",
        }
    }

    /// Default severity (deny = refuses codegen/execution, warn =
    /// reported but non-fatal).
    pub fn default_severity(self) -> Severity {
        match self {
            LintCode::HaloTooNarrow
            | LintCode::WindowTooShallow
            | LintCode::ParallelWindowRace
            | LintCode::InPlaceOrderDependence
            | LintCode::SpmOverflow
            | LintCode::MpiGridIndivisible
            | LintCode::MpiSubgridTooNarrow
            | LintCode::LiftSyntaxError
            | LintCode::LiftNonAffineSubscript
            | LintCode::LiftUnsupportedLoop
            | LintCode::LiftUnsupportedConstruct
            | LintCode::LiftShapeMismatch
            | LintCode::LiftMarginMismatch
            | LintCode::LiftNestTooDeep
            | LintCode::LiftValidationMismatch => Severity::Deny,
            LintCode::HaloOversized
            | LintCode::WindowOversized
            | LintCode::ThreadsExceedTiles
            | LintCode::DmaRowTooShort => Severity::Warn,
        }
    }

    /// Every code, for docs and exhaustiveness tests.
    pub fn all() -> &'static [LintCode] {
        &[
            LintCode::HaloTooNarrow,
            LintCode::HaloOversized,
            LintCode::WindowTooShallow,
            LintCode::WindowOversized,
            LintCode::ParallelWindowRace,
            LintCode::InPlaceOrderDependence,
            LintCode::ThreadsExceedTiles,
            LintCode::SpmOverflow,
            LintCode::DmaRowTooShort,
            LintCode::MpiGridIndivisible,
            LintCode::MpiSubgridTooNarrow,
            LintCode::LiftSyntaxError,
            LintCode::LiftNonAffineSubscript,
            LintCode::LiftUnsupportedLoop,
            LintCode::LiftUnsupportedConstruct,
            LintCode::LiftShapeMismatch,
            LintCode::LiftMarginMismatch,
            LintCode::LiftNestTooDeep,
            LintCode::LiftValidationMismatch,
        ]
    }
}

impl std::fmt::Display for LintCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        let mut seen = std::collections::BTreeSet::new();
        for c in LintCode::all() {
            assert!(seen.insert(c.as_str()), "duplicate code {}", c);
            assert!(c.as_str().starts_with("MSC-L"));
        }
        assert_eq!(seen.len(), 19);
    }

    #[test]
    fn family_matches_code_block() {
        for c in LintCode::all() {
            let hundreds = &c.as_str()[5..6];
            let fam = match hundreds {
                "1" => "halo",
                "2" => "window",
                "3" => "race",
                "4" => "capacity",
                "5" => "lift",
                _ => unreachable!(),
            };
            assert_eq!(c.family(), fam, "{}", c);
        }
    }
}
