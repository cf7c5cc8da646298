//! Acoustic wave propagation through a **heterogeneous medium** — the
//! §5.6 workload class (WRF/POP2-style kernels with coefficient grids):
//!
//! ```text
//! u[t] = 2·u[t-1] − u[t-2] + K(x) · ∇²u[t-1],   K(x) = (c(x)·Δt/Δx)²
//! ```
//!
//! The velocity field `c(x)` has a slow layer and a fast layer; the
//! wavefront visibly travels further in the fast layer. The update is a
//! variable-coefficient stencil compiled from a single IR expression.
//!
//! Run with: `cargo run --release --example variable_velocity`

use msc::core::schedule::{ExecPlan, Schedule};
use msc::exec::CompiledVarStencil;
use msc::prelude::*;

const N: usize = 160;
const K_SLOW: f64 = 0.1;
const K_FAST: f64 = 0.45;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 2·u + K(x)·∇²u  (the t-2 term is combined in the leapfrog loop).
    let expr = 2.0 * Expr::at("B", &[0, 0])
        + Expr::at("K", &[0, 0])
            * (Expr::at("B", &[-1, 0]) + Expr::at("B", &[1, 0]) + Expr::at("B", &[0, -1])
                + Expr::at("B", &[0, 1])
                - 4.0 * Expr::at("B", &[0, 0]));

    let u0: Grid<f64> = Grid::zeros(&[N, N], &[1, 1]);
    let stencil = CompiledVarStencil::<f64>::compile(&expr, "B", &u0.layout())?;
    println!(
        "compiled variable-coefficient stencil: {} taps, coefficient grids {:?}",
        6, stencil.coeff_names
    );

    // Layered velocity model: slow upper half, fast lower half.
    let k: Grid<f64> = Grid::from_fn(&[N, N], &[1, 1], |p| {
        if p[0] < N / 2 {
            K_SLOW
        } else {
            K_FAST
        }
    });
    let coeffs = stencil.bind(&u0.layout(), &[("K", &k)])?;

    // Leapfrog state: point source on the layer interface.
    let mut prev = u0.clone();
    let mut cur = u0.clone();
    cur.set(&[N / 2, N / 2], 1.0);
    prev.set(&[N / 2, N / 2], 1.0);

    let mut sched = Schedule::default();
    sched.tile(&[20, 160]).parallel("xo", 4);
    let plan = ExecPlan::lower(&sched, 2, &[N, N])?;

    let mut tmp = u0.clone();
    let steps = 70;
    for _ in 0..steps {
        // tmp = 2*cur + K*lap(cur); next = tmp - prev.
        stencil.step_tiled(&plan, &cur, &coeffs, &mut tmp)?;
        let prev_slice = prev.as_slice().to_vec();
        for (o, p) in tmp.as_mut_slice().iter_mut().zip(prev_slice) {
            *o -= p;
        }
        std::mem::swap(&mut prev, &mut cur);
        std::mem::swap(&mut cur, &mut tmp);
    }

    // Measure wavefront extent along the vertical line through the
    // source: upward into the slow layer, downward into the fast layer
    // (a pure-layer path, uncontaminated by lateral propagation).
    let thr = 1e-3;
    let mut slow_extent = 0.0f64;
    let mut fast_extent = 0.0f64;
    for x in 0..N {
        if cur.get(&[x, N / 2]).abs() > thr {
            let d = x as f64 - (N / 2) as f64;
            if d < 0.0 {
                slow_extent = slow_extent.max(-d);
            } else {
                fast_extent = fast_extent.max(d);
            }
        }
    }
    println!(
        "after {steps} steps: wavefront reach {:.1} cells (slow layer) vs {:.1} (fast layer)",
        slow_extent, fast_extent
    );
    let ratio = fast_extent / slow_extent;
    let expected = (K_FAST / K_SLOW).sqrt();
    println!(
        "speed ratio {:.2} (theory sqrt(K_fast/K_slow) = {:.2})",
        ratio, expected
    );
    assert!(
        (ratio - expected).abs() / expected < 0.30,
        "wave speeds should follow the velocity model"
    );

    // Cross-check the tiled sweep against the serial sweep.
    let mut a = u0.clone();
    let mut b = u0.clone();
    stencil.step_reference(&cur, &coeffs, &mut a);
    stencil.step_tiled(&plan, &cur, &coeffs, &mut b)?;
    assert_eq!(a.as_slice(), b.as_slice());
    println!("tiled and serial variable-coefficient sweeps agree bitwise");
    Ok(())
}
