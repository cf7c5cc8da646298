//! Error type shared across the MSC compiler layers.

use std::fmt;

/// Errors raised while building, validating, scheduling, or lowering a
/// stencil program.
#[derive(Debug, Clone, PartialEq)]
pub enum MscError {
    /// A name (tensor, kernel, axis, buffer) was referenced but never defined.
    Undefined { kind: &'static str, name: String },
    /// A name was defined twice in the same scope.
    Duplicate { kind: &'static str, name: String },
    /// A stencil access reaches outside the declared halo region.
    HaloTooSmall {
        tensor: String,
        dim: usize,
        halo: usize,
        required: usize,
    },
    /// The time window of a tensor is too small for the stencil's
    /// temporal dependencies.
    TimeWindowTooSmall {
        tensor: String,
        window: usize,
        required: usize,
    },
    /// A schedule primitive was used illegally (bad tile factor,
    /// non-permutation reorder, parallel axis not outermost, ...).
    IllegalSchedule(String),
    /// A kernel expression is not in a form the requested lowering supports.
    UnsupportedExpr(String),
    /// Dimension mismatch between cooperating objects.
    DimMismatch { expected: usize, got: usize },
    /// Invalid user-provided configuration (grid shape, process grid, ...).
    InvalidConfig(String),
    /// A grid that cannot be provisioned: its padded size overflows the
    /// address space (`bytes` is `None`), or the allocator refused its
    /// `bytes`.
    GridTooLarge {
        shape: Vec<usize>,
        halo: Vec<usize>,
        bytes: Option<usize>,
    },
    /// A communication-layer fault (lost/corrupt message, dead rank,
    /// poisoned world). Carries the rendered `CommError` from `msc-comm`,
    /// which owns the typed representation.
    Comm(String),
}

impl fmt::Display for MscError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MscError::Undefined { kind, name } => write!(f, "undefined {kind}: `{name}`"),
            MscError::Duplicate { kind, name } => write!(f, "duplicate {kind}: `{name}`"),
            MscError::HaloTooSmall {
                tensor,
                dim,
                halo,
                required,
            } => write!(
                f,
                "halo of tensor `{tensor}` is {halo} in dim {dim}, but the stencil reaches {required}"
            ),
            MscError::TimeWindowTooSmall {
                tensor,
                window,
                required,
            } => write!(
                f,
                "time window of tensor `{tensor}` is {window}, but the stencil depends on {required} timesteps"
            ),
            MscError::IllegalSchedule(msg) => write!(f, "illegal schedule: {msg}"),
            MscError::UnsupportedExpr(msg) => write!(f, "unsupported expression: {msg}"),
            MscError::DimMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            MscError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            MscError::GridTooLarge { shape, halo, bytes } => {
                write!(f, "a grid of {shape:?} with halo {halo:?} ")?;
                match bytes {
                    Some(bytes) => write!(f, "needs {bytes} bytes, which could not be allocated"),
                    None => write!(f, "is larger than the address space"),
                }
            }
            MscError::Comm(msg) => write!(f, "communication failure: {msg}"),
        }
    }
}

impl std::error::Error for MscError {}

/// Result alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, MscError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_offending_name() {
        let e = MscError::Undefined {
            kind: "tensor",
            name: "B".into(),
        };
        assert!(e.to_string().contains("tensor"));
        assert!(e.to_string().contains("`B`"));
    }

    #[test]
    fn halo_error_reports_requirement() {
        let e = MscError::HaloTooSmall {
            tensor: "B".into(),
            dim: 2,
            halo: 1,
            required: 4,
        };
        let s = e.to_string();
        assert!(s.contains("dim 2"));
        assert!(s.contains("reaches 4"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<MscError>();
    }
}
