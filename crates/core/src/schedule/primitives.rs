//! Optimization primitives (paper §4.3). Each primitive records a rewrite
//! of the kernel's loop nest; [`crate::schedule::plan`] materializes them.
//!
//! Axis naming convention follows the paper's Figure 4: spatial dimensions
//! (outermost first) are named `x`, `y`, `z`; `tile` splits `x` into
//! `xo`/`xi`, etc.

use crate::error::{MscError, Result};

/// Canonical axis name for spatial dimension `dim` (0 = outermost).
pub fn axis_name(dim: usize) -> &'static str {
    ["x", "y", "z"][dim]
}

/// Parse `"xo"` / `"yi"` / ... into `(dim, is_inner)`.
pub fn parse_split_axis(name: &str) -> Result<(usize, bool)> {
    let mut chars = name.chars();
    let base = chars.next().ok_or_else(|| {
        MscError::IllegalSchedule("empty axis name".into())
    })?;
    let suffix = chars.next();
    let dim = match base {
        'x' => 0,
        'y' => 1,
        'z' => 2,
        _ => {
            return Err(MscError::IllegalSchedule(format!(
                "unknown axis `{name}` (expected x/y/z with o/i suffix)"
            )))
        }
    };
    match suffix {
        Some('o') => Ok((dim, false)),
        Some('i') => Ok((dim, true)),
        _ => Err(MscError::IllegalSchedule(format!(
            "axis `{name}` must carry an `o`/`i` split suffix"
        ))),
    }
}

/// Scope of an SPM buffer allocation: `global` hoists the allocation out of
/// all loops to avoid repeated malloc/free (paper §4.3, Figure 4(e)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BufferScope {
    #[default]
    Global,
    Local,
}

/// A read or write buffer placed in local memory (SPM).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSpec {
    /// Buffer identifier, e.g. `buffer_read`.
    pub buffer: String,
    /// The tensor bound to the buffer.
    pub tensor: String,
    pub scope: BufferScope,
}

/// DMA placement: transfer `buffer` at the boundary of loop `axis`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComputeAt {
    pub buffer: String,
    pub axis: String,
}

/// The full set of primitives applied to one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Tile (loop fission) factor per spatial dimension; empty = untiled.
    pub tile_factors: Vec<usize>,
    /// Loop order after splitting, e.g. `[xo, yo, zo, xi, yi, zi]`.
    pub loop_order: Vec<String>,
    /// Multi-threading: `(axis, n_threads)`.
    pub parallel: Option<(String, usize)>,
    /// SPM read buffer binding (`cache_read`).
    pub cache_read: Option<CacheSpec>,
    /// SPM write buffer binding (`cache_write`).
    pub cache_write: Option<CacheSpec>,
    /// DMA transfer points (`compute_at`).
    pub compute_at: Vec<ComputeAt>,
    /// Double-buffered (pipelined) DMA: prefetch tile k+1 while
    /// computing tile k, overlapping data access and computation within
    /// the limited local memory (the paper's §5.6 streaming extension).
    pub double_buffer: bool,
    /// Temporal tile depth: process this many timesteps per staged tile
    /// with overlapped (redundant) halo computation (§2.1's temporal
    /// tiling; 1 = spatial tiling only).
    pub time_tile: usize,
}

impl Default for Schedule {
    fn default() -> Schedule {
        Schedule {
            tile_factors: Vec::new(),
            loop_order: Vec::new(),
            parallel: None,
            cache_read: None,
            cache_write: None,
            compute_at: Vec::new(),
            double_buffer: false,
            time_tile: 1,
        }
    }
}

impl Schedule {
    /// `tile_time(tt)` — overlapped temporal tiling: each staged tile
    /// advances `tt` timesteps locally, trading redundant halo
    /// computation for tt-fold fewer DMA passes over the grid.
    pub fn tile_time(&mut self, tt: usize) -> &mut Self {
        self.time_tile = tt.max(1);
        self
    }

    /// `tile(τ_x, τ_y, ..)` — split every spatial loop by the given
    /// factors (loop fission, paper Figure 4(a)→(b)).
    pub fn tile(&mut self, factors: &[usize]) -> &mut Self {
        self.tile_factors = factors.to_vec();
        self
    }

    /// `reorder(xo, yo, zo, xi, yi, zi)` — set the loop order after
    /// splitting (paper Figure 4(b)→(c)).
    pub fn reorder(&mut self, order: &[&str]) -> &mut Self {
        self.loop_order = order.iter().map(|s| s.to_string()).collect();
        self
    }

    /// `parallel(ax, N)` — multi-thread the given (outermost) axis over
    /// `n_threads` cores (paper Figure 4(c)/(d)).
    pub fn parallel(&mut self, axis: &str, n_threads: usize) -> &mut Self {
        self.parallel = Some((axis.to_string(), n_threads));
        self
    }

    /// `cache_read(tensor, buffer, scope)` — bind the input tensor to an
    /// SPM read buffer.
    pub fn cache_read(&mut self, tensor: &str, buffer: &str, scope: BufferScope) -> &mut Self {
        self.cache_read = Some(CacheSpec {
            buffer: buffer.to_string(),
            tensor: tensor.to_string(),
            scope,
        });
        self
    }

    /// `cache_write(buffer, scope)` — bind the kernel output to an SPM
    /// write buffer (a `TeNode` temporary).
    pub fn cache_write(&mut self, buffer: &str, scope: BufferScope) -> &mut Self {
        self.cache_write = Some(CacheSpec {
            buffer: buffer.to_string(),
            tensor: String::new(),
            scope,
        });
        self
    }

    /// `stream()` — enable double-buffered DMA so transfers overlap with
    /// computation (requires SPM primitives; doubles buffer footprint).
    pub fn stream(&mut self) -> &mut Self {
        self.double_buffer = true;
        self
    }

    /// `compute_at(buffer, axis)` — issue the buffer's DMA transfer at the
    /// boundary of `axis` (paper Figure 4(e)).
    pub fn compute_at(&mut self, buffer: &str, axis: &str) -> &mut Self {
        self.compute_at.push(ComputeAt {
            buffer: buffer.to_string(),
            axis: axis.to_string(),
        });
        self
    }

    /// Whether SPM caching primitives are in play (Sunway-style lowering,
    /// Figure 4 path (a),(b),(d),(e)).
    pub fn uses_spm(&self) -> bool {
        self.cache_read.is_some() || self.cache_write.is_some()
    }

    /// The default loop order for an `ndim`-dimensional tiled nest:
    /// all outer axes then all inner axes.
    pub fn canonical_order(ndim: usize) -> Vec<String> {
        let mut v: Vec<String> = (0..ndim).map(|d| format!("{}o", axis_name(d))).collect();
        v.extend((0..ndim).map(|d| format!("{}i", axis_name(d))));
        v
    }

    /// Number of threads requested (1 if not parallel).
    pub fn n_threads(&self) -> usize {
        self.parallel.as_ref().map(|(_, n)| *n).unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_style_chaining() {
        let mut s = Schedule::default();
        s.tile(&[8, 8, 32])
            .reorder(&["xo", "yo", "zo", "xi", "yi", "zi"])
            .parallel("xo", 64)
            .cache_read("B", "buffer_read", BufferScope::Global)
            .cache_write("buffer_write", BufferScope::Global)
            .compute_at("buffer_read", "zo")
            .compute_at("buffer_write", "zo");
        assert_eq!(s.tile_factors, vec![8, 8, 32]);
        assert_eq!(s.n_threads(), 64);
        assert!(s.uses_spm());
        assert_eq!(s.compute_at.len(), 2);
    }

    #[test]
    fn canonical_order_2d_and_3d() {
        assert_eq!(Schedule::canonical_order(2), vec!["xo", "yo", "xi", "yi"]);
        assert_eq!(
            Schedule::canonical_order(3),
            vec!["xo", "yo", "zo", "xi", "yi", "zi"]
        );
    }

    #[test]
    fn parse_axis_names() {
        assert_eq!(parse_split_axis("xo").unwrap(), (0, false));
        assert_eq!(parse_split_axis("zi").unwrap(), (2, true));
        assert!(parse_split_axis("w").is_err());
        assert!(parse_split_axis("x").is_err());
        assert!(parse_split_axis("").is_err());
    }

    #[test]
    fn defaults_are_serial_untiled() {
        let s = Schedule::default();
        assert!(!s.uses_spm());
        assert_eq!(s.n_threads(), 1);
        assert!(s.tile_factors.is_empty());
    }
}
