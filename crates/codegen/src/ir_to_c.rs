//! Shared IR→C helpers: layout constants, tap rendering, and the kernel
//! update expression (MSC's tensor IR emits *direct* linear indexing,
//! the design point the paper credits for beating Halide-AOT on
//! high-order stencils, §5.5).

use msc_core::error::{MscError, Result};
use msc_core::prelude::*;
use std::collections::HashMap;

/// Padded layout of the program's grid: shapes, strides, window.
#[derive(Debug, Clone)]
pub struct Layout {
    pub ndim: usize,
    pub shape: Vec<usize>,
    pub halo: Vec<usize>,
    pub padded: Vec<usize>,
    pub strides: Vec<usize>,
    pub window: usize,
    pub elem_c: &'static str,
}

impl Layout {
    /// The layout of the program's grid, or [`MscError::GridTooLarge`]
    /// when a size the C spells (a stride, the padded length, the bytes of
    /// the window) overflows `usize`. `SpNode::new` refuses such a grid,
    /// but the program's fields are public, so a shape edited after
    /// `build()` is checked again here.
    pub fn of(program: &StencilProgram) -> Result<Layout> {
        let g = &program.grid;
        let window = program.stencil.time_window();
        let too_large = || MscError::GridTooLarge {
            shape: g.shape.clone(),
            halo: g.halo.clone(),
            bytes: None,
        };
        let padded = (g.shape.iter().zip(&g.halo))
            .map(|(&n, &h)| h.checked_mul(2)?.checked_add(n))
            .collect::<Option<Vec<usize>>>()
            .ok_or_else(too_large)?;
        // Every stride divides the padded length, which divides the bytes.
        let bytes = (window.checked_mul(g.dtype.size_bytes()))
            .and_then(|b| padded.iter().try_fold(b, |b, &p| b.checked_mul(p)));
        bytes.ok_or_else(too_large)?;
        let mut strides = vec![1usize; padded.len()];
        for d in (0..padded.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * padded[d + 1];
        }
        Ok(Layout {
            ndim: g.ndim(),
            shape: g.shape.clone(),
            halo: g.halo.clone(),
            padded,
            strides,
            window,
            elem_c: g.dtype.c_name(),
        })
    }

    /// Total padded elements of one state buffer.
    pub fn padded_len(&self) -> usize {
        self.padded.iter().product()
    }

    /// `#define` block with the layout constants.
    #[allow(clippy::needless_range_loop)] // dimension loop indexes several parallel arrays
    pub fn defines(&self) -> String {
        let mut s = String::new();
        let names = ["X", "Y", "Z"];
        for d in 0..self.ndim {
            s += &format!("#define N{} {}\n", names[d], self.shape[d]);
            s += &format!("#define H{} {}\n", names[d], self.halo[d]);
            s += &format!("#define P{} {}\n", names[d], self.padded[d]);
            s += &format!("#define S{} {}\n", names[d], self.strides[d]);
        }
        s += &format!("#define WINDOW {}\n", self.window);
        s += &format!("#define PADDED_LEN {}\n", self.padded_len());
        s
    }

    /// C expression for the linear index of interior point
    /// `(x, y, z)` (variables named by dimension).
    pub fn idx_expr(&self) -> String {
        let (vars, dims) = (["x", "y", "z"], ["X", "Y", "Z"]);
        let parts: Vec<String> = (0..self.ndim)
            .map(|d| format!("({} + H{1}) * S{1}", vars[d], dims[d]))
            .collect();
        parts.join(" + ")
    }
}

/// `{:.17e}` of `v`, formatted the first time a statement asks for it: exact
/// digits cost 250-600 ns and a box kernel prints one weight per tap.
fn rendered(coeffs: &mut HashMap<u64, String>, v: f64) -> &str {
    coeffs
        .entry(v.to_bits())
        .or_insert_with(|| format!("{v:.17e}"))
}

/// Render every temporal term's weighted tap sum, in term order, over the
/// input `in_name` gives the term, at linear index variable `idx`. The taps
/// are the kernel's own, linearized when it was built.
pub fn term_exprs(
    program: &StencilProgram,
    layout: &Layout,
    in_name: impl Fn(&TimeTerm) -> String,
) -> Result<Vec<String>> {
    let mut coeffs = HashMap::new();
    let mut exprs = Vec::new();
    for term in &program.stencil.terms {
        let taps = program.stencil.kernel(&term.kernel)?.taps()?;
        let in_name = in_name(term);
        let mut s = format!("{} * (", rendered(&mut coeffs, term.weight));
        for (i, (offset, coeff)) in taps.enumerate() {
            // One tap per line: reads like hand-written stencil code and
            // keeps generated-LoC accounting honest (Table 6).
            if i > 0 {
                s += "\n        + ";
            }
            let lin: i64 = offset
                .iter()
                .zip(&layout.strides)
                .map(|(&o, &s)| o * s as i64)
                .sum();
            s += rendered(&mut coeffs, coeff);
            s += &match lin.cmp(&0) {
                std::cmp::Ordering::Equal => format!(" * {in_name}[idx]"),
                std::cmp::Ordering::Greater => format!(" * {in_name}[idx + {lin}]"),
                std::cmp::Ordering::Less => format!(" * {in_name}[idx - {}]", -lin),
            };
        }
        exprs.push(s + ")");
    }
    Ok(exprs)
}

/// Render the full update statement `out[idx] = Σ term_exprs;`.
pub fn update_stmt(program: &StencilProgram, layout: &Layout) -> Result<String> {
    // Inputs are named by temporal distance: `in1` = state t-1, etc.
    let terms = term_exprs(program, layout, |t| format!("in{}", t.dt))?;
    let sum = terms.join("\n                + ");
    Ok(format!("out[idx] = {sum};"))
}

/// Emit the nested tile loops of the plan around `body` (which may use
/// the interior coordinates `x`, `y`, `z` and must compute `idx` itself).
/// Returns (code, names of the loop variables outermost-first).
pub fn tile_loops(
    plan: &msc_core::schedule::ExecPlan,
    layout: &Layout,
    body: &str,
    parallel_pragma: Option<&str>,
    indent: usize,
) -> String {
    let dims = ["X", "Y", "Z"];
    let vars = ["x", "y", "z"];
    let mut code = String::new();
    let mut depth = indent;
    let pad = |d: usize| "    ".repeat(d);

    for (i, lv) in plan.order.iter().enumerate() {
        let d = lv.dim;
        if !lv.inner {
            if i == 0 {
                if let Some(p) = parallel_pragma {
                    code += &format!("{}{}\n", pad(depth), p);
                }
            }
            code += &format!(
                "{}for (int {}o = 0; {}o < {}; {}o++) {{\n",
                pad(depth),
                vars[d],
                vars[d],
                plan.tiles_along(d),
                vars[d]
            );
        } else {
            let tile = plan.tile[d];
            code += &format!(
                "{}int {v}_end = ({v}o + 1) * {t} < N{D} ? {t} : N{D} - {v}o * {t};\n",
                pad(depth),
                v = vars[d],
                t = tile,
                D = dims[d]
            );
            code += &format!(
                "{}for (int {v}i = 0; {v}i < {v}_end; {v}i++) {{\n",
                pad(depth),
                v = vars[d]
            );
            code += &format!(
                "{}int {v} = {v}o * {t} + {v}i;\n",
                pad(depth + 1),
                v = vars[d],
                t = tile
            );
        }
        depth += 1;
    }
    // When the plan is untiled, order contains only inner loops with the
    // whole grid as the tile: declare the plain coordinate loops.
    if plan.order.iter().all(|l| l.inner) && plan.num_tiles() == 1 {
        code.clear();
        depth = indent;
        if let Some(p) = parallel_pragma {
            code += &format!("{}{}\n", pad(depth), p);
        }
        for lv in &plan.order {
            let d = lv.dim;
            code += &format!(
                "{}for (int {v} = 0; {v} < N{D}; {v}++) {{\n",
                pad(depth),
                v = vars[d],
                D = dims[d]
            );
            depth += 1;
        }
    }

    code += &format!("{}long idx = {};\n", pad(depth), layout.idx_expr());
    let body_pad = pad(depth);
    for line in body.lines() {
        code += &body_pad;
        code += line;
        code.push('\n');
    }
    let n_loops = depth - indent;
    for d in (0..n_loops).rev() {
        code += &format!("{}}}\n", "    ".repeat(indent + d));
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_core::catalog::{benchmark, BenchmarkId};
    use msc_core::schedule::{ExecPlan, Schedule};

    fn program() -> StencilProgram {
        benchmark(BenchmarkId::S3d7ptStar)
            .program(&[16, 16, 16], DType::F64, 2)
            .unwrap()
    }

    #[test]
    fn layout_constants() {
        let p = program();
        let l = Layout::of(&p).unwrap();
        assert_eq!(l.padded, vec![18, 18, 18]);
        assert_eq!(l.strides, vec![324, 18, 1]);
        assert_eq!(l.window, 3);
        let d = l.defines();
        assert!(d.contains("#define NX 16"));
        assert!(d.contains("#define SX 324"));
        assert!(d.contains("#define WINDOW 3"));
    }

    #[test]
    fn update_statement_references_both_terms() {
        let p = program();
        let l = Layout::of(&p).unwrap();
        let s = update_stmt(&p, &l).unwrap();
        assert!(s.contains("in1[idx"));
        assert!(s.contains("in2[idx"));
        assert!(s.starts_with("out[idx] ="));
        // 7 taps per term.
        assert_eq!(s.matches("in1[").count(), 7);
    }

    #[test]
    fn term_expr_uses_direct_linear_offsets() {
        let p = program();
        let l = Layout::of(&p).unwrap();
        let e = &term_exprs(&p, &l, |_| "in1".into()).unwrap()[0];
        // Taps at z±1 (stride 324) and at ±1.
        assert!(e.contains("in1[idx + 324]"));
        assert!(e.contains("in1[idx - 324]"));
        assert!(e.contains("in1[idx + 1]"));
    }

    #[test]
    fn tile_loops_emit_clamped_inner_bounds() {
        let p = program();
        let l = Layout::of(&p).unwrap();
        let mut s = Schedule::default();
        s.tile(&[8, 8, 8]).parallel("xo", 4);
        let plan = ExecPlan::lower(&s, 3, &[16, 16, 16]).unwrap();
        let code = tile_loops(&plan, &l, "/*body*/", Some("#pragma omp parallel for"), 1);
        assert!(code.contains("#pragma omp parallel for"));
        assert!(code.contains("for (int xo = 0; xo < 2; xo++)"));
        assert!(code.contains("x_end"));
        assert_eq!(code.matches('{').count(), code.matches('}').count());
    }

    #[test]
    fn untiled_plan_emits_plain_loops() {
        let p = program();
        let l = Layout::of(&p).unwrap();
        let plan = ExecPlan::lower(&Schedule::default(), 3, &[16, 16, 16]).unwrap();
        let code = tile_loops(&plan, &l, "/*body*/", None, 0);
        assert!(code.contains("for (int x = 0; x < NX; x++)"));
        assert!(!code.contains("xo"));
        assert_eq!(code.matches('{').count(), code.matches('}').count());
    }
}
