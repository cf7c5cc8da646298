//! Expression IR (paper Table 2): value assignment, unary/binary math
//! operators, external function calls, and index-calculation expressions.
//!
//! Expressions are plain trees. A stencil kernel body is a single
//! expression over *relative* tensor accesses such as `B[k-1, j, i]`;
//! the surrounding loop nest is represented separately by
//! [`crate::axis::Axis`] and the schedule.

use crate::error::{MscError, Result};
use std::collections::BTreeMap;
use std::fmt;

/// Binary operators available in kernel expressions (`OperatorExpr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Min,
    Max,
}

impl BinOp {
    /// C source spelling; `Min`/`Max` lower to `fmin`/`fmax` calls.
    pub fn c_symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Min => "fmin",
            BinOp::Max => "fmax",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Abs,
    Sqrt,
}

/// A single relative access into a tensor: `tensor[i0+o0, i1+o1, ...]`
/// optionally reaching `time_back` timesteps into the past.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Access {
    pub tensor: String,
    /// Spatial offsets, one per grid dimension, outermost first.
    pub offsets: Vec<i64>,
    /// How many timesteps back this access reads (0 = current input state).
    pub time_back: usize,
}

/// A coefficient in a variable-coefficient stencil: a constant, or a
/// scaled read of a coefficient tensor.
#[derive(Debug, Clone, PartialEq)]
pub enum VarCoeff {
    Const(f64),
    Tensor {
        name: String,
        offset: Vec<i64>,
        scale: f64,
    },
}

/// One tap of a variable-coefficient stencil:
/// `coeff(x) * grid[x + offset]`.
#[derive(Debug, Clone, PartialEq)]
pub struct VarTap {
    pub offset: Vec<i64>,
    pub coeff: VarCoeff,
}

/// Expression tree node (paper: `AssignExpr` is represented by the kernel
/// itself writing its output tensor; the remaining forms are below).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Floating-point literal.
    Const(f64),
    /// Integer literal.
    ConstI(i64),
    /// Reference to a scalar DSL variable (e.g. a coefficient).
    Var(String),
    /// Relative tensor access (`IndexExpr` folded into the access).
    Access(Access),
    /// Unary operator.
    Unary(UnOp, Box<Expr>),
    /// Binary operator.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// External function call (`CallFuncExpr`).
    Call(String, Vec<Expr>),
}

impl Expr {
    /// Build a relative access expression.
    pub fn at(tensor: &str, offsets: &[i64]) -> Expr {
        Expr::Access(Access {
            tensor: tensor.to_string(),
            offsets: offsets.to_vec(),
            time_back: 0,
        })
    }

    /// Relative access reading `time_back` steps into the past.
    pub fn at_time(tensor: &str, offsets: &[i64], time_back: usize) -> Expr {
        Expr::Access(Access {
            tensor: tensor.to_string(),
            offsets: offsets.to_vec(),
            time_back,
        })
    }

    /// Floating constant.
    pub fn c(v: f64) -> Expr {
        Expr::Const(v)
    }

    /// Count additive operations (`+`, `-`) in the tree.
    pub fn count_adds(&self) -> usize {
        self.fold(0, &mut |acc, e| {
            acc + match e {
                Expr::Binary(BinOp::Add | BinOp::Sub, _, _) => 1,
                _ => 0,
            }
        })
    }

    /// Count multiplicative operations (`*`) in the tree; divisions do
    /// not count.
    pub fn count_muls(&self) -> usize {
        self.fold(0, &mut |acc, e| {
            acc + match e {
                Expr::Binary(BinOp::Mul, _, _) => 1,
                _ => 0,
            }
        })
    }

    /// Every distinct tensor access in the tree, in canonical (sorted)
    /// order, borrowed from the tree.
    pub fn accesses(&self) -> Vec<&Access> {
        let mut refs = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Access(a) = e {
                refs.push(a);
            }
        });
        refs.sort_unstable();
        refs.dedup();
        refs
    }

    /// Evaluate the expression with `lookup` resolving tensor accesses and
    /// `vars` resolving scalar variables. Used by the naive serial
    /// reference executor.
    pub fn eval(
        &self,
        lookup: &mut dyn FnMut(&Access) -> f64,
        vars: &BTreeMap<String, f64>,
    ) -> Result<f64> {
        Ok(match self {
            Expr::Const(v) => *v,
            Expr::ConstI(v) => *v as f64,
            Expr::Var(name) => *vars.get(name).ok_or_else(|| MscError::Undefined {
                kind: "variable",
                name: name.clone(),
            })?,
            Expr::Access(a) => lookup(a),
            Expr::Unary(op, a) => {
                let v = a.eval(lookup, vars)?;
                match op {
                    UnOp::Neg => -v,
                    UnOp::Abs => v.abs(),
                    UnOp::Sqrt => v.sqrt(),
                }
            }
            Expr::Binary(op, a, b) => {
                let x = a.eval(lookup, vars)?;
                let y = b.eval(lookup, vars)?;
                match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                    BinOp::Min => x.min(y),
                    BinOp::Max => x.max(y),
                }
            }
            Expr::Call(name, args) => {
                let vals: Result<Vec<f64>> = args.iter().map(|e| e.eval(lookup, vars)).collect();
                let vals = vals?;
                match (name.as_str(), vals.as_slice()) {
                    ("exp", [x]) => x.exp(),
                    ("sin", [x]) => x.sin(),
                    ("cos", [x]) => x.cos(),
                    ("pow", [x, y]) => x.powf(*y),
                    _ => {
                        return Err(MscError::UnsupportedExpr(format!(
                            "unknown external function `{name}` with {} args",
                            vals.len()
                        )))
                    }
                }
            }
        })
    }

    /// Flatten the expression into a linear combination of accesses of a
    /// *single* tensor at a *single* time offset, `sum_i scale_i * T[x +
    /// o_i]`: every access with its scale, in walk order, an access read
    /// twice listed twice. A kernel folds its taps from this (the executor
    /// and codegen fast path); `Err` for non-linear or multi-tensor
    /// expressions.
    pub fn linear_terms(&self) -> Result<Vec<(&Access, f64)>> {
        let mut terms = Vec::new();
        self.linearize(1.0, &mut terms, &mut None)?;
        Ok(terms)
    }

    fn linearize<'e>(
        &'e self,
        scale: f64,
        terms: &mut Vec<(&'e Access, f64)>,
        tensor: &mut Option<(&'e str, usize)>,
    ) -> Result<()> {
        match self {
            Expr::Access(a) => {
                match tensor {
                    Some((name, tb)) => {
                        if *name != a.tensor || *tb != a.time_back {
                            return Err(MscError::UnsupportedExpr(
                                "linear form requires a single tensor and time offset".into(),
                            ));
                        }
                    }
                    None => *tensor = Some((&a.tensor, a.time_back)),
                }
                terms.push((a, scale));
                Ok(())
            }
            Expr::Binary(BinOp::Add, a, b) => {
                a.linearize(scale, terms, tensor)?;
                b.linearize(scale, terms, tensor)
            }
            Expr::Binary(BinOp::Sub, a, b) => {
                a.linearize(scale, terms, tensor)?;
                b.linearize(-scale, terms, tensor)
            }
            Expr::Binary(BinOp::Mul, a, b) => {
                if let Some(c) = a.as_const() {
                    b.linearize(scale * c, terms, tensor)
                } else if let Some(c) = b.as_const() {
                    a.linearize(scale * c, terms, tensor)
                } else {
                    Err(MscError::UnsupportedExpr(
                        "non-constant multiplication in linear stencil".into(),
                    ))
                }
            }
            Expr::Unary(UnOp::Neg, a) => a.linearize(-scale, terms, tensor),
            Expr::Const(c) if *c == 0.0 => Ok(()),
            other => Err(MscError::UnsupportedExpr(format!(
                "cannot linearize node: {other}"
            ))),
        }
    }

    /// Flatten into a *variable-coefficient* linear form over accesses of
    /// `grid`: `Σ_i coeff_i(x) · grid[x + off_i]`, where each coefficient
    /// is either a constant or `scale · C[x + o]` for a coefficient
    /// tensor `C` (the WRF/POP2 kernel form of the paper's §5.6).
    pub fn to_var_taps(&self, grid: &str) -> Result<Vec<VarTap>> {
        let mut taps = Vec::new();
        self.linearize_var(1.0, None, grid, &mut taps)?;
        Ok(taps)
    }

    fn linearize_var(
        &self,
        scale: f64,
        coeff: Option<&Access>,
        grid: &str,
        taps: &mut Vec<VarTap>,
    ) -> Result<()> {
        match self {
            Expr::Access(a) if a.tensor == grid => {
                taps.push(VarTap {
                    offset: a.offsets.clone(),
                    coeff: match coeff {
                        None => VarCoeff::Const(scale),
                        Some(c) => VarCoeff::Tensor {
                            name: c.tensor.clone(),
                            offset: c.offsets.clone(),
                            scale,
                        },
                    },
                });
                Ok(())
            }
            Expr::Access(a) => Err(MscError::UnsupportedExpr(format!(
                "coefficient tensor `{}` must multiply a `{grid}` access",
                a.tensor
            ))),
            Expr::Binary(BinOp::Add, a, b) => {
                a.linearize_var(scale, coeff, grid, taps)?;
                b.linearize_var(scale, coeff, grid, taps)
            }
            Expr::Binary(BinOp::Sub, a, b) => {
                a.linearize_var(scale, coeff, grid, taps)?;
                b.linearize_var(-scale, coeff, grid, taps)
            }
            Expr::Unary(UnOp::Neg, a) => a.linearize_var(-scale, coeff, grid, taps),
            Expr::Binary(BinOp::Mul, a, b) => {
                // Constant factor on either side.
                if let Some(c) = a.as_const() {
                    return b.linearize_var(scale * c, coeff, grid, taps);
                }
                if let Some(c) = b.as_const() {
                    return a.linearize_var(scale * c, coeff, grid, taps);
                }
                // Coefficient-tensor factor: an access to a non-grid
                // tensor multiplying a grid subtree.
                let as_coeff = |e: &Expr| match e {
                    Expr::Access(a) if a.tensor != grid => Some(a.clone()),
                    _ => None,
                };
                if coeff.is_none() {
                    if let Some(c) = as_coeff(a) {
                        return b.linearize_var(scale, Some(&c), grid, taps);
                    }
                    if let Some(c) = as_coeff(b) {
                        return a.linearize_var(scale, Some(&c), grid, taps);
                    }
                }
                Err(MscError::UnsupportedExpr(
                    "product of two non-constant factors in variable-coefficient form".into(),
                ))
            }
            Expr::Const(c) if *c == 0.0 => Ok(()),
            other => Err(MscError::UnsupportedExpr(format!(
                "cannot linearize node in variable-coefficient form: {other}"
            ))),
        }
    }

    /// Evaluate the expression if it is a compile-time constant
    /// (constants, integer literals, negation, constant arithmetic).
    pub fn as_const(&self) -> Option<f64> {
        match self {
            Expr::Const(v) => Some(*v),
            Expr::ConstI(v) => Some(*v as f64),
            Expr::Unary(UnOp::Neg, a) => a.as_const().map(|v| -v),
            Expr::Binary(op, a, b) => {
                let (x, y) = (a.as_const()?, b.as_const()?);
                Some(match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                    BinOp::Min => x.min(y),
                    BinOp::Max => x.max(y),
                })
            }
            _ => None,
        }
    }

    /// Render the expression as C source, with `idx` the names of the loop
    /// index variables (outermost first) and `indexer` mapping an access to
    /// a C lvalue string.
    pub fn to_c(&self, indexer: &dyn Fn(&Access) -> String) -> String {
        match self {
            Expr::Const(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{v:.1}")
                } else {
                    format!("{v}")
                }
            }
            Expr::ConstI(v) => format!("{v}"),
            Expr::Var(name) => name.clone(),
            Expr::Access(a) => indexer(a),
            Expr::Unary(op, a) => match op {
                UnOp::Neg => format!("(-{})", a.to_c(indexer)),
                UnOp::Abs => format!("fabs({})", a.to_c(indexer)),
                UnOp::Sqrt => format!("sqrt({})", a.to_c(indexer)),
            },
            Expr::Binary(op, a, b) => match op {
                BinOp::Min | BinOp::Max => format!(
                    "{}({}, {})",
                    op.c_symbol(),
                    a.to_c(indexer),
                    b.to_c(indexer)
                ),
                _ => format!(
                    "({} {} {})",
                    a.to_c(indexer),
                    op.c_symbol(),
                    b.to_c(indexer)
                ),
            },
            Expr::Call(name, args) => {
                let args: Vec<String> = args.iter().map(|e| e.to_c(indexer)).collect();
                format!("{}({})", name, args.join(", "))
            }
        }
    }

    fn visit<'e>(&'e self, f: &mut dyn FnMut(&'e Expr)) {
        f(self);
        match self {
            Expr::Unary(_, a) => a.visit(f),
            Expr::Binary(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.visit(f);
                }
            }
            _ => {}
        }
    }

    fn fold<T>(&self, init: T, f: &mut dyn FnMut(T, &Expr) -> T) -> T {
        let mut acc = f(init, self);
        match self {
            Expr::Unary(_, a) => acc = a.fold(acc, f),
            Expr::Binary(_, a, b) => {
                acc = a.fold(acc, f);
                acc = b.fold(acc, f);
            }
            Expr::Call(_, args) => {
                for a in args {
                    acc = a.fold(acc, f);
                }
            }
            _ => {}
        }
        acc
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.to_c(&|a| {
            let offs: Vec<String> = a
                .offsets
                .iter()
                .map(|o| match o.cmp(&0) {
                    std::cmp::Ordering::Equal => "".to_string(),
                    std::cmp::Ordering::Greater => format!("+{o}"),
                    std::cmp::Ordering::Less => format!("{o}"),
                })
                .collect();
            let idx_names = ["k", "j", "i"];
            let start = 3usize.saturating_sub(a.offsets.len());
            let parts: Vec<String> = offs
                .iter()
                .enumerate()
                .map(|(d, o)| format!("{}{}", idx_names.get(start + d).unwrap_or(&"i"), o))
                .collect();
            if a.time_back > 0 {
                format!("{}[t-{}][{}]", a.tensor, a.time_back, parts.join(","))
            } else {
                format!("{}[{}]", a.tensor, parts.join(","))
            }
        });
        f.write_str(&s)
    }
}

impl std::ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Add, Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Sub, Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Mul, Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Mul<Expr> for f64 {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Mul, Box::new(Expr::Const(self)), Box::new(rhs))
    }
}

impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Unary(UnOp::Neg, Box::new(self))
    }
}

/// The most nodes a front end builds for one expression. Every later
/// pass (`visit`, `linearize`, the lint passes, the emitters, evaluation,
/// lift validation, `Drop`) recurses over the tree, and a chain of `+`
/// terms is as deep as it is long, so this also bounds their depth: the
/// deepest tree it admits runs all of them on a 2 MiB stack in a debug
/// build (`tests/expression_caps.rs`), and one twice as deep overflows
/// there in the lifter. The largest catalog kernel, `2d121pt`, has 483
/// nodes.
pub const MAX_EXPR_NODES: usize = 1024;

/// The deepest a front end lets one expression nest: each parenthesis and
/// each unary minus is one level, entered by recursion in the parser.
pub const MAX_EXPR_DEPTH: usize = 64;

/// What a front end counts while it parses one expression, so that one
/// too large for a thread's stack is refused with a typed error before
/// any recursive pass runs. Both the `.msc` parser and the C lifter use
/// it; each wraps the message in its own error.
#[derive(Debug, Default)]
pub struct ExprBudget {
    nodes: usize,
    depth: usize,
}

impl ExprBudget {
    /// Count one node built.
    pub fn node(&mut self) -> std::result::Result<(), String> {
        self.nodes += 1;
        if self.nodes > MAX_EXPR_NODES {
            return Err(format!(
                "expression has more than {MAX_EXPR_NODES} nodes; split the kernel"
            ));
        }
        Ok(())
    }

    /// Enter one nesting level; pair with [`ExprBudget::leave`].
    pub fn enter(&mut self) -> std::result::Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_EXPR_DEPTH {
            return Err(format!(
                "expression nesting exceeds the depth cap of {MAX_EXPR_DEPTH}"
            ));
        }
        Ok(())
    }

    pub fn leave(&mut self) {
        self.depth -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lap1d() -> Expr {
        // 0.5*B[i-1] - 1.0*B[i] + 0.5*B[i+1]
        0.5 * Expr::at("B", &[-1]) - 1.0 * Expr::at("B", &[0]) + 0.5 * Expr::at("B", &[1])
    }

    #[test]
    fn op_counts() {
        let e = lap1d();
        assert_eq!(e.count_muls(), 3);
        assert_eq!(e.count_adds(), 2);
    }

    #[test]
    fn access_collection_is_sorted_and_deduped() {
        let e = lap1d() + 2.0 * Expr::at("B", &[1]);
        let acc = e.accesses();
        assert_eq!(acc.len(), 3);
        assert_eq!(acc[0].offsets, vec![-1]);
        assert_eq!(acc[2].offsets, vec![1]);
    }

    #[test]
    fn eval_simple() {
        let e = lap1d();
        let mut lookup = |a: &Access| match a.offsets[0] {
            -1 => 1.0,
            0 => 2.0,
            1 => 3.0,
            _ => unreachable!(),
        };
        let v = e.eval(&mut lookup, &BTreeMap::new()).unwrap();
        assert!((v - (0.5 - 2.0 + 1.5)).abs() < 1e-15);
    }

    #[test]
    fn eval_vars_and_calls() {
        let e = Expr::Call("pow".into(), vec![Expr::Var("a".into()), Expr::c(2.0)]);
        let mut vars = BTreeMap::new();
        vars.insert("a".to_string(), 3.0);
        let v = e.eval(&mut |_| 0.0, &vars).unwrap();
        assert_eq!(v, 9.0);
    }

    #[test]
    fn eval_unknown_var_errors() {
        let e = Expr::Var("missing".into());
        assert!(e.eval(&mut |_| 0.0, &BTreeMap::new()).is_err());
    }

    /// The taps of a 1-D kernel over `e`, as `(offset, coefficient)`.
    fn taps(e: Expr) -> Result<Vec<(Vec<i64>, f64)>> {
        let k = crate::kernel::Kernel::new("k", 1, e)?;
        let taps = k.taps()?.map(|(o, c)| (o.to_vec(), c)).collect();
        Ok(taps)
    }

    #[test]
    fn taps_merge_duplicate_offsets() {
        let e = 0.25 * Expr::at("B", &[1]) + 0.25 * Expr::at("B", &[1]);
        let taps = taps(e).unwrap();
        assert_eq!(taps.len(), 1);
        assert!((taps[0].1 - 0.5).abs() < 1e-15);
    }

    #[test]
    fn taps_handle_sub_and_neg() {
        let e = -(Expr::at("B", &[0])) - 2.0 * Expr::at("B", &[1]);
        assert_eq!(taps(e).unwrap(), vec![(vec![0], -1.0), (vec![1], -2.0)]);
    }

    #[test]
    fn taps_reject_multi_tensor() {
        let e = Expr::at("A", &[0]) + Expr::at("B", &[0]);
        assert!(taps(e).is_err());
    }

    #[test]
    fn taps_reject_nonlinear() {
        let e = Expr::at("B", &[0]) * Expr::at("B", &[1]);
        assert!(taps(e).is_err());
    }

    #[test]
    fn taps_linear_matches_eval() {
        let e = lap1d();
        let grid = |o: i64| (o + 10) as f64 * 1.5;
        let via_taps: f64 = taps(e.clone())
            .unwrap()
            .iter()
            .map(|(o, c)| c * grid(o[0]))
            .sum();
        let mut lookup = |a: &Access| grid(a.offsets[0]);
        let via_eval = e.eval(&mut lookup, &BTreeMap::new()).unwrap();
        assert!((via_taps - via_eval).abs() < 1e-12);
    }

    #[test]
    fn var_taps_extract_coefficient_tensors() {
        // C[0]*B[-1] + 2.0*C[0]*B[1] + 0.5*B[0]
        let e = Expr::at("C", &[0]) * Expr::at("B", &[-1])
            + 2.0 * (Expr::at("C", &[0]) * Expr::at("B", &[1]))
            + 0.5 * Expr::at("B", &[0]);
        let taps = e.to_var_taps("B").unwrap();
        assert_eq!(taps.len(), 3);
        assert_eq!(
            taps[0].coeff,
            VarCoeff::Tensor {
                name: "C".into(),
                offset: vec![0],
                scale: 1.0
            }
        );
        assert_eq!(
            taps[1].coeff,
            VarCoeff::Tensor {
                name: "C".into(),
                offset: vec![0],
                scale: 2.0
            }
        );
        assert_eq!(taps[2].coeff, VarCoeff::Const(0.5));
    }

    #[test]
    fn var_taps_handle_distribution_over_sums() {
        // C[0,0] * (B[-1,0] - B[1,0])
        let e = Expr::at("C", &[0, 0]) * (Expr::at("B", &[-1, 0]) - Expr::at("B", &[1, 0]));
        let taps = e.to_var_taps("B").unwrap();
        assert_eq!(taps.len(), 2);
        match &taps[1].coeff {
            VarCoeff::Tensor { scale, .. } => assert_eq!(*scale, -1.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn var_taps_reject_bilinear_products() {
        let e = Expr::at("B", &[0]) * Expr::at("B", &[1]);
        assert!(e.to_var_taps("B").is_err());
        // Coefficient times coefficient times grid is also rejected.
        let e = Expr::at("C", &[0]) * (Expr::at("D", &[0]) * Expr::at("B", &[0]));
        assert!(e.to_var_taps("B").is_err());
    }

    #[test]
    fn var_taps_reject_bare_coefficient_terms() {
        let e = Expr::at("C", &[0]) + Expr::at("B", &[0]);
        assert!(e.to_var_taps("B").is_err());
    }

    #[test]
    fn c_rendering() {
        let e = 2.0 * Expr::at("B", &[0, 1]);
        let c = e.to_c(&|a| format!("B[{}][{}]", a.offsets[0], a.offsets[1]));
        assert_eq!(c, "(2.0 * B[0][1])");
    }

    #[test]
    fn display_shows_relative_indices() {
        let e = Expr::at("B", &[-1, 0, 2]);
        assert_eq!(e.to_string(), "B[k-1,j,i+2]");
    }

    #[test]
    fn display_shows_time_offsets() {
        let e = Expr::at_time("B", &[0, 0], 2);
        assert!(e.to_string().contains("t-2"));
    }
}
