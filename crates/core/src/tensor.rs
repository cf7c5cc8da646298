//! Tensor IR (paper Table 2): `SpNode` — a tensor *with* halo region and a
//! sliding time window; `TeNode` — a compiler-internal temporary *without*
//! halo, holding one timestep of the computation domain.

use crate::dtype::DType;
use crate::error::{MscError, Result};

/// User-visible grid tensor with a halo region (`SpNode`).
///
/// MSC allocates extra space for the halo in every spatial dimension and
/// for `time_window` timesteps of state (paper §4.2, §4.3 "sliding time
/// window").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpNode {
    pub name: String,
    pub dtype: DType,
    /// Interior (computation-domain) shape, outermost dimension first.
    pub shape: Vec<usize>,
    /// Halo width per dimension.
    pub halo: Vec<usize>,
    /// Number of timesteps kept live (≥ max time dependency + 1).
    pub time_window: usize,
}

impl SpNode {
    /// Create an `SpNode` with uniform halo width.
    pub fn new(
        name: &str,
        dtype: DType,
        shape: &[usize],
        halo_width: usize,
        time_window: usize,
    ) -> Result<SpNode> {
        if shape.is_empty() || shape.len() > 3 {
            return Err(MscError::InvalidConfig(format!(
                "SpNode `{name}` must be 1D/2D/3D, got {}D",
                shape.len()
            )));
        }
        if shape.contains(&0) {
            return Err(MscError::InvalidConfig(format!(
                "SpNode `{name}` has a zero-sized dimension"
            )));
        }
        if time_window == 0 {
            return Err(MscError::InvalidConfig(format!(
                "SpNode `{name}` needs a time window of at least 1"
            )));
        }
        let halo = vec![halo_width; shape.len()];
        // Then every size derived from the node (padded cells, their
        // bytes, a window of them) fits in `usize`.
        let padded_bytes = |window_bytes| {
            shape.iter().try_fold(window_bytes, |bytes: usize, &n| {
                halo_width.checked_mul(2)?.checked_add(n)?.checked_mul(bytes)
            })
        };
        if time_window.checked_mul(dtype.size_bytes()).and_then(padded_bytes).is_none() {
            return Err(MscError::GridTooLarge {
                shape: shape.to_vec(),
                halo,
                bytes: None,
            });
        }
        Ok(SpNode {
            name: name.to_string(),
            dtype,
            shape: shape.to_vec(),
            halo,
            time_window,
        })
    }

    /// Number of spatial dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Shape including halos on both sides.
    pub fn padded_shape(&self) -> Vec<usize> {
        self.shape
            .iter()
            .zip(&self.halo)
            .map(|(&s, &h)| s.saturating_add(h.saturating_mul(2)))
            .collect()
    }

    /// Element count of one padded timestep buffer. The fields are
    /// public, so a shape edited after [`SpNode::new`] may overflow: such
    /// a count saturates at `usize::MAX`, which no allocation meets.
    pub fn padded_elems(&self) -> usize {
        self.padded_shape()
            .iter()
            .fold(1, |n: usize, &p| n.saturating_mul(p))
    }

    /// Total bytes allocated: padded buffer × time window (saturating,
    /// like [`SpNode::padded_elems`]).
    pub fn alloc_bytes(&self) -> usize {
        self.padded_elems()
            .saturating_mul(self.time_window)
            .saturating_mul(self.dtype.size_bytes())
    }

    /// Bytes the *sliding window* saves versus storing every timestep of a
    /// `total_steps`-long run (paper Figure 5).
    pub fn window_savings_bytes(&self, total_steps: usize) -> usize {
        let per_step = self.padded_elems() * self.dtype.size_bytes();
        per_step * total_steps.saturating_sub(self.time_window)
    }

    /// Validate that the halo is wide enough for a stencil with the given
    /// per-dimension reach.
    pub fn check_reach(&self, reach: &[usize]) -> Result<()> {
        if reach.len() != self.ndim() {
            return Err(MscError::DimMismatch {
                expected: self.ndim(),
                got: reach.len(),
            });
        }
        for (dim, (&h, &r)) in self.halo.iter().zip(reach).enumerate() {
            if r > h {
                return Err(MscError::HaloTooSmall {
                    tensor: self.name.clone(),
                    dim,
                    halo: h,
                    required: r,
                });
            }
        }
        Ok(())
    }
}

/// Compiler-internal temporary without halo (`TeNode`), holding the
/// intermediate domain data of one timestep (or one tile, for SPM write
/// buffers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TeNode {
    pub name: String,
    pub dtype: DType,
    pub shape: Vec<usize>,
}

impl TeNode {
    pub fn new(name: &str, dtype: DType, shape: &[usize]) -> TeNode {
        TeNode {
            name: name.to_string(),
            dtype,
            shape: shape.to_vec(),
        }
    }

    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    pub fn elems(&self) -> usize {
        self.shape.iter().product()
    }

    pub fn bytes(&self) -> usize {
        self.elems() * self.dtype.size_bytes()
    }
}

/// Either tensor kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorDecl {
    Sp(SpNode),
    Te(TeNode),
}

impl TensorDecl {
    pub fn name(&self) -> &str {
        match self {
            TensorDecl::Sp(t) => &t.name,
            TensorDecl::Te(t) => &t.name,
        }
    }

    pub fn dtype(&self) -> DType {
        match self {
            TensorDecl::Sp(t) => t.dtype,
            TensorDecl::Te(t) => t.dtype,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b3d() -> SpNode {
        SpNode::new("B", DType::F64, &[256, 256, 256], 1, 2).unwrap()
    }

    #[test]
    fn a_node_whose_size_overflows_is_refused() {
        let big = u32::MAX as usize + 1;
        let err = SpNode::new("B", DType::F64, &[big, big], 1, 2).unwrap_err();
        let halo = vec![1, 1];
        assert_eq!(err, MscError::GridTooLarge { shape: vec![big, big], halo, bytes: None });
        // Cells that fit, a window of their bytes that does not.
        assert!(SpNode::new("B", DType::F64, &[big, big / 8 - 1], 0, 1).is_ok());
        assert!(SpNode::new("B", DType::F64, &[big, big / 8 - 1], 0, 2).is_err());
        assert!(SpNode::new("B", DType::F64, &[1], 0, usize::MAX / 4).is_err());
    }

    #[test]
    fn padded_shape_adds_double_halo() {
        assert_eq!(b3d().padded_shape(), vec![258, 258, 258]);
    }

    #[test]
    fn alloc_accounts_for_time_window() {
        let t = b3d();
        assert_eq!(t.alloc_bytes(), 258 * 258 * 258 * 2 * 8);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(SpNode::new("B", DType::F64, &[], 1, 2).is_err());
        assert!(SpNode::new("B", DType::F64, &[4, 4, 4, 4], 1, 2).is_err());
        assert!(SpNode::new("B", DType::F64, &[0, 4], 1, 2).is_err());
        assert!(SpNode::new("B", DType::F64, &[4, 4], 1, 0).is_err());
    }

    #[test]
    fn reach_check() {
        let t = b3d();
        assert!(t.check_reach(&[1, 1, 1]).is_ok());
        assert!(matches!(
            t.check_reach(&[1, 2, 1]),
            Err(MscError::HaloTooSmall { dim: 1, .. })
        ));
        assert!(matches!(
            t.check_reach(&[1, 1]),
            Err(MscError::DimMismatch { .. })
        ));
    }

    #[test]
    fn window_savings_grow_with_steps() {
        let t = b3d();
        assert_eq!(t.window_savings_bytes(2), 0);
        let per_step = 258 * 258 * 258 * 8;
        assert_eq!(t.window_savings_bytes(10), per_step * 8);
    }

    #[test]
    fn tenode_bytes() {
        let t = TeNode::new("tmp", DType::F32, &[8, 8, 32]);
        assert_eq!(t.bytes(), 8 * 8 * 32 * 4);
        assert_eq!(t.ndim(), 3);
    }

    #[test]
    fn decl_accessors() {
        let d = TensorDecl::Sp(b3d());
        assert_eq!(d.name(), "B");
        assert_eq!(d.dtype(), DType::F64);
    }
}
