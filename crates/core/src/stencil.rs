//! `Stencil` IR node: a stencil with **multiple time dependencies**,
//! composed of kernels applied to the grid state at several previous
//! timesteps (paper §4.2):
//!
//! ```text
//! Stencil st((i,j), Res[t] << S_3d7pt[t-1] + S_3d7pt[t-2]);
//! ```
//!
//! is modelled as `Res[t] = Σ_d weight_d · K_d(U[t - dt_d])`.

use crate::error::{MscError, Result};
use crate::kernel::Kernel;

/// One temporal term: apply `kernel` to the state `dt` steps back,
/// scaled by `weight`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeTerm {
    /// Temporal dependency distance, ≥ 1.
    pub dt: usize,
    /// Scale applied to the kernel output.
    pub weight: f64,
    /// Name of the kernel (resolved against [`Stencil::kernels`]).
    pub kernel: String,
}

/// A stencil computation along the time dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct Stencil {
    pub name: String,
    /// The kernels this stencil may reference.
    pub kernels: Vec<Kernel>,
    /// Temporal combination, ordered by `dt`.
    pub terms: Vec<TimeTerm>,
}

impl Stencil {
    /// Build and validate a stencil. Terms must reference declared kernels,
    /// have `dt ≥ 1`, and all kernels must agree on dimensionality.
    pub fn new(name: &str, kernels: Vec<Kernel>, mut terms: Vec<TimeTerm>) -> Result<Stencil> {
        if kernels.is_empty() {
            return Err(MscError::InvalidConfig(format!(
                "stencil `{name}` declares no kernels"
            )));
        }
        if terms.is_empty() {
            return Err(MscError::InvalidConfig(format!(
                "stencil `{name}` has no time terms"
            )));
        }
        let ndim = kernels[0].ndim;
        for k in &kernels {
            if k.ndim != ndim {
                return Err(MscError::DimMismatch {
                    expected: ndim,
                    got: k.ndim,
                });
            }
        }
        for t in &terms {
            if t.dt == 0 {
                return Err(MscError::InvalidConfig(format!(
                    "stencil `{name}`: time term must depend on a previous step (dt >= 1)"
                )));
            }
            if !kernels.iter().any(|k| k.name == t.kernel) {
                return Err(MscError::Undefined {
                    kind: "kernel",
                    name: t.kernel.clone(),
                });
            }
        }
        terms.sort_by_key(|t| t.dt);
        Ok(Stencil {
            name: name.to_string(),
            kernels,
            terms,
        })
    }

    /// Convenience constructor for the common case of one kernel applied
    /// at several past timesteps.
    pub fn from_kernel(name: &str, kernel: Kernel, deps: &[(usize, f64)]) -> Result<Stencil> {
        let kname = kernel.name.clone();
        let terms = deps
            .iter()
            .map(|&(dt, weight)| TimeTerm {
                dt,
                weight,
                kernel: kname.clone(),
            })
            .collect();
        Stencil::new(name, vec![kernel], terms)
    }

    /// Spatial dimensionality.
    pub fn ndim(&self) -> usize {
        self.kernels[0].ndim
    }

    /// Number of distinct temporal dependencies (paper Table 4
    /// "Time Dep." column).
    pub fn time_deps(&self) -> usize {
        let mut dts: Vec<usize> = self.terms.iter().map(|t| t.dt).collect();
        dts.dedup();
        dts.len()
    }

    /// Maximum dependency distance.
    pub fn max_dt(&self) -> usize {
        self.terms.iter().map(|t| t.dt).max().unwrap_or(1)
    }

    /// Required sliding-time-window width: the stencil at time `t` needs
    /// states `t-1 .. t-max_dt` plus the output slot (paper Figure 5: two
    /// dependencies → window of three).
    pub fn time_window(&self) -> usize {
        self.max_dt() + 1
    }

    /// Look up a kernel by name.
    pub fn kernel(&self, name: &str) -> Result<&Kernel> {
        self.kernels
            .iter()
            .find(|k| k.name == name)
            .ok_or_else(|| MscError::Undefined {
                kind: "kernel",
                name: name.to_string(),
            })
    }

    /// Per-dimension reach over all kernels (for halo sizing).
    pub fn reach(&self) -> Vec<usize> {
        let mut reach = vec![0usize; self.ndim()];
        for k in &self.kernels {
            for (r, &kr) in reach.iter_mut().zip(k.reach()) {
                *r = (*r).max(kr);
            }
        }
        reach
    }

    /// Sum over terms of `weight · Σ kernel coeffs` — 1.0 keeps iterates
    /// bounded for averaging kernels.
    pub fn stability_sum(&self) -> Result<f64> {
        let mut s = 0.0;
        for t in &self.terms {
            let taps = self.kernel(&t.kernel)?.taps()?;
            s += t.weight * taps.map(|(_, coeff)| coeff).sum::<f64>();
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_dep() -> Stencil {
        Stencil::from_kernel(
            "st",
            Kernel::star_normalized("S", 3, 1),
            &[(1, 0.6), (2, 0.4)],
        )
        .unwrap()
    }

    #[test]
    fn window_is_max_dt_plus_one() {
        let st = two_dep();
        assert_eq!(st.max_dt(), 2);
        assert_eq!(st.time_window(), 3);
        assert_eq!(st.time_deps(), 2);
    }

    #[test]
    fn terms_are_sorted_by_dt() {
        let st = Stencil::from_kernel(
            "st",
            Kernel::star_normalized("S", 2, 1),
            &[(3, 0.1), (1, 0.9)],
        )
        .unwrap();
        assert_eq!(st.terms[0].dt, 1);
        assert_eq!(st.terms[1].dt, 3);
    }

    #[test]
    fn rejects_dt_zero() {
        let r = Stencil::from_kernel("st", Kernel::star_normalized("S", 2, 1), &[(0, 1.0)]);
        assert!(r.is_err());
    }

    #[test]
    fn rejects_unknown_kernel() {
        let k = Kernel::star_normalized("S", 2, 1);
        let r = Stencil::new(
            "st",
            vec![k],
            vec![TimeTerm {
                dt: 1,
                weight: 1.0,
                kernel: "missing".into(),
            }],
        );
        assert!(matches!(r, Err(MscError::Undefined { .. })));
    }

    #[test]
    fn rejects_empty() {
        assert!(Stencil::new("st", vec![], vec![]).is_err());
        let k = Kernel::star_normalized("S", 2, 1);
        assert!(Stencil::new("st", vec![k], vec![]).is_err());
    }

    #[test]
    fn rejects_mixed_dims() {
        let k2 = Kernel::star_normalized("A", 2, 1);
        let k3 = Kernel::star_normalized("B3", 3, 1);
        let r = Stencil::new(
            "st",
            vec![k2, k3],
            vec![TimeTerm {
                dt: 1,
                weight: 1.0,
                kernel: "A".into(),
            }],
        );
        assert!(matches!(r, Err(MscError::DimMismatch { .. })));
    }

    #[test]
    fn stability_of_convex_combination() {
        let st = two_dep();
        assert!((st.stability_sum().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reach_is_max_over_kernels() {
        let k1 = Kernel::star_normalized("A", 2, 1);
        let k2 = Kernel::star_normalized("B2", 2, 3);
        let st = Stencil::new(
            "st",
            vec![k1, k2],
            vec![
                TimeTerm {
                    dt: 1,
                    weight: 0.5,
                    kernel: "A".into(),
                },
                TimeTerm {
                    dt: 2,
                    weight: 0.5,
                    kernel: "B2".into(),
                },
            ],
        )
        .unwrap();
        assert_eq!(st.reach(), vec![3, 3]);
    }
}
