//! Textual frontend for the MSC DSL: a hand-written lexer and
//! recursive-descent parser for `.msc` files. The paper embeds MSC in
//! C++ (Listing 1); this repository embeds it in Rust *and* provides a
//! standalone surface syntax so stencils can be compiled from plain text
//! by the `mscc` driver:
//!
//! ```text
//! stencil 3d7pt {
//!     grid B: f64[256, 256, 256] halo 1 window 3;
//!     kernel S = 0.4*B[0,0,0] + 0.1*B[-1,0,0] + 0.1*B[1,0,0]
//!              + 0.1*B[0,-1,0] + 0.1*B[0,1,0]
//!              + 0.1*B[0,0,-1] + 0.1*B[0,0,1];
//!     combine res[t] = 0.6*S[t-1] + 0.4*S[t-2];
//!     schedule { tile 8 8 32; reorder xo yo zo xi yi zi; parallel xo 64; spm zo; }
//!     mpi 4 4 4;
//!     run 10;
//!     target sunway;
//! }
//! ```

use crate::dsl::StencilProgram;
use crate::dtype::DType;
use crate::error::{MscError, Result};
use crate::expr::{Expr, ExprBudget};
use crate::kernel::Kernel;
use crate::schedule::{BufferScope, Target};
use crate::stencil::TimeTerm;
use crate::tensor::SpNode;

/// A parsed `.msc` file: the validated program plus the requested
/// code-generation target (if any).
#[derive(Debug, Clone)]
pub struct ParsedProgram {
    pub program: StencilProgram,
    pub target: Option<Target>,
}

/// Parse an `.msc` source string.
pub fn parse(source: &str) -> Result<ParsedProgram> {
    Parser::new(source)?.program(true)
}

/// Parse without halo/time-window sufficiency validation. Structural and
/// syntax errors still fail; semantically unsound programs (too-narrow
/// halo, too-shallow window) parse successfully so `msc-lint` can report
/// them as structured diagnostics instead of one opaque build error.
pub fn parse_unchecked(source: &str) -> Result<ParsedProgram> {
    Parser::new(source)?.program(false)
}

/// Render a validated program back to `.msc` surface syntax (the inverse
/// of [`parse`], up to schedule-primitive ordering). Useful for saving
/// builder-constructed or auto-scheduled programs as files.
pub fn to_msc_source(program: &StencilProgram, target: Option<Target>) -> String {
    let mut s = String::new();
    s += &format!("stencil {} {{\n", program.name);
    let g = &program.grid;
    s += &format!(
        "    grid {}: {}[{}] halo {} window {};\n",
        g.name,
        g.dtype,
        g.shape
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        g.halo[0],
        g.time_window
    );
    for k in &program.stencil.kernels {
        let taps = k.taps().expect("printable kernels are linear");
        let terms: Vec<String> = taps
            .map(|(offset, coeff)| {
                let offs = offset
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",");
                format!("{coeff:?}*{}[{offs}]", k.input)
            })
            .collect();
        s += &format!("    kernel {} = {};\n", k.name, terms.join(" + "));
    }
    // The combine grammar carries signs as separators, so emit absolute
    // weights with explicit +/- joiners.
    let mut combo = String::new();
    for (i, t) in program.stencil.terms.iter().enumerate() {
        if i == 0 {
            if t.weight < 0.0 {
                combo += "-";
            }
        } else if t.weight < 0.0 {
            combo += " - ";
        } else {
            combo += " + ";
        }
        combo += &format!("{:?}*{}[t-{}]", t.weight.abs(), t.kernel, t.dt);
    }
    s += &format!("    combine res[t] = {combo};\n");

    let sched = &program.stencil.kernels[0].schedule;
    if !sched.tile_factors.is_empty() || sched.parallel.is_some() {
        s += "    schedule {";
        if !sched.tile_factors.is_empty() {
            s += &format!(
                " tile {};",
                sched
                    .tile_factors
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(" ")
            );
        }
        if !sched.loop_order.is_empty() {
            s += &format!(" reorder {};", sched.loop_order.join(" "));
        }
        if let Some((axis, n)) = &sched.parallel {
            s += &format!(" parallel {axis} {n};");
        }
        if let Some(ca) = sched.compute_at.first() {
            s += &format!(" spm {};", ca.axis);
        }
        if sched.double_buffer {
            s += " stream;";
        }
        if sched.time_tile > 1 {
            s += &format!(" tile_time {};", sched.time_tile);
        }
        s += " }\n";
    }
    if let Some(mpi) = &program.mpi_grid {
        s += &format!(
            "    mpi {};\n",
            mpi.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    s += &format!("    run {};\n", program.timesteps);
    if let Some(t) = target {
        s += &format!("    target {};\n", t.as_str());
    }
    s += "}\n";
    s
}

// ---------------------------------------------------------------- lexer

/// A token borrows its text from the source, so lexing allocates nothing
/// but the token list and the parser copies tokens instead of cloning them.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Num(f64),
    Int(i64),
    Sym(char),
    Eof,
}

impl std::fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Num(v) => write!(f, "number {v}"),
            Tok::Int(v) => write!(f, "integer {v}"),
            Tok::Sym(c) => write!(f, "`{c}`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

fn lex(src: &str) -> Result<Vec<(Tok<'_>, usize)>> {
    let mut toks = Vec::new();
    // Every token starts with an ASCII byte, so the scan is over bytes; `i`
    // only ever rests on a character boundary.
    let bytes = src.as_bytes();
    let ident_byte = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut i = 0;
    let mut line = 1;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < bytes.len() && ident_byte(bytes[i]) {
                    i += 1;
                }
                toks.push((Tok::Ident(&src[start..i]), line));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let mut is_float = false;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || matches!(bytes[i], b'.' | b'e' | b'E')
                        || (matches!(bytes[i], b'+' | b'-') && matches!(bytes[i - 1], b'e' | b'E')))
                {
                    is_float |= matches!(bytes[i], b'.' | b'e' | b'E');
                    i += 1;
                }
                // Benchmark names like `3d7pt` start with digits: if a
                // plain integer runs straight into letters, re-lex the
                // whole run as an identifier.
                if !is_float
                    && i < bytes.len()
                    && (bytes[i].is_ascii_alphabetic() || bytes[i] == b'_')
                {
                    while i < bytes.len() && ident_byte(bytes[i]) {
                        i += 1;
                    }
                    toks.push((Tok::Ident(&src[start..i]), line));
                    continue;
                }
                let text = &src[start..i];
                if is_float {
                    let v = text.parse::<f64>().map_err(|_| {
                        MscError::InvalidConfig(format!("line {line}: bad number `{text}`"))
                    })?;
                    toks.push((Tok::Num(v), line));
                } else {
                    let v = text.parse::<i64>().map_err(|_| {
                        MscError::InvalidConfig(format!("line {line}: bad integer `{text}`"))
                    })?;
                    toks.push((Tok::Int(v), line));
                }
            }
            b'{' | b'}' | b'[' | b']' | b'(' | b')' | b':' | b';' | b',' | b'=' | b'+' | b'-'
            | b'*' => {
                toks.push((Tok::Sym(c as char), line));
                i += 1;
            }
            _ => {
                // Anything else is other white space (Unicode's included)
                // or an error that names the character, not its first byte.
                let other = src[i..]
                    .chars()
                    .next()
                    .expect("`i` is inside `src`, on a boundary");
                if !other.is_whitespace() {
                    return Err(MscError::InvalidConfig(format!(
                        "line {line}: unexpected character `{other}`"
                    )));
                }
                i += other.len_utf8();
            }
        }
    }
    toks.push((Tok::Eof, line));
    Ok(toks)
}

// --------------------------------------------------------------- parser

struct Parser<'a> {
    toks: Vec<(Tok<'a>, usize)>,
    pos: usize,
    /// Nodes and nesting of the kernel expression being parsed.
    budget: ExprBudget,
}

#[derive(Debug, Default)]
struct ScheduleSpec<'a> {
    tile: Vec<usize>,
    reorder: Vec<&'a str>,
    parallel: Option<(&'a str, usize)>,
    spm_axis: Option<&'a str>,
    stream: bool,
    time_tile: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Parser<'a>> {
        Ok(Parser {
            toks: lex(src)?,
            pos: 0,
            budget: ExprBudget::default(),
        })
    }

    fn peek(&self) -> Tok<'a> {
        self.toks[self.pos].0
    }

    fn line(&self) -> usize {
        self.toks[self.pos].1
    }

    fn next(&mut self) -> Tok<'a> {
        let t = self.peek();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: &str) -> MscError {
        MscError::InvalidConfig(format!(
            "line {}: {msg}, found {}",
            self.line(),
            self.peek()
        ))
    }

    fn expect_sym(&mut self, c: char) -> Result<()> {
        match self.next() {
            Tok::Sym(s) if s == c => Ok(()),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err(&format!("expected `{c}`")))
            }
        }
    }

    fn expect_ident(&mut self) -> Result<&'a str> {
        match self.next() {
            Tok::Ident(s) => Ok(s),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected identifier"))
            }
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        let id = self.expect_ident()?;
        if id == kw {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err(&format!("expected keyword `{kw}`")))
        }
    }

    fn expect_uint(&mut self) -> Result<usize> {
        match self.next() {
            Tok::Int(v) if v >= 0 => Ok(v as usize),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected a non-negative integer"))
            }
        }
    }

    fn expect_int(&mut self) -> Result<i64> {
        let neg = matches!(self.peek(), Tok::Sym('-'));
        if neg {
            self.next();
        }
        match self.next() {
            Tok::Int(v) => Ok(if neg { -v } else { v }),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected an integer"))
            }
        }
    }

    // program := "stencil" IDENT "{" item* "}"
    fn program(&mut self, strict: bool) -> Result<ParsedProgram> {
        self.expect_keyword("stencil")?;
        let name = self.expect_ident()?;
        self.expect_sym('{')?;

        let mut grid: Option<SpNode> = None;
        let mut kernels: Vec<Kernel> = Vec::new();
        let mut terms: Vec<TimeTerm> = Vec::new();
        let mut schedule = ScheduleSpec::default();
        let mut mpi: Option<Vec<usize>> = None;
        let mut timesteps = 1usize;
        let mut target: Option<Target> = None;

        loop {
            match self.peek() {
                Tok::Sym('}') => {
                    self.next();
                    break;
                }
                Tok::Ident(kw) => match kw {
                    "grid" => grid = Some(self.grid_item()?),
                    "kernel" => kernels.push(self.kernel_item(grid.as_ref())?),
                    "combine" => terms = self.combine_item()?,
                    "schedule" => schedule = self.schedule_item()?,
                    "mpi" => mpi = Some(self.int_list_item("mpi")?),
                    "run" => {
                        self.expect_keyword("run")?;
                        timesteps = self.expect_uint()?;
                        self.expect_sym(';')?;
                    }
                    "target" => {
                        self.expect_keyword("target")?;
                        let t = self.expect_ident()?;
                        target = Some(Target::from_name(t).ok_or_else(|| {
                            MscError::InvalidConfig(format!(
                                "unknown target `{t}` (expected sunway/matrix/cpu)"
                            ))
                        })?);
                        self.expect_sym(';')?;
                    }
                    _ => return Err(self.err("expected a program item")),
                },
                _ => return Err(self.err("expected a program item or `}`")),
            }
        }

        // Assemble and validate through the same path as the builder API.
        let grid = grid
            .ok_or_else(|| MscError::InvalidConfig(format!("stencil `{name}` declares no grid")))?;
        if kernels.is_empty() {
            return Err(MscError::InvalidConfig(format!(
                "stencil `{name}` declares no kernels"
            )));
        }
        // Apply the schedule to every kernel.
        for k in &mut kernels {
            let input = k.input.clone();
            let ndim = k.ndim;
            let s = k.sched();
            if !schedule.tile.is_empty() {
                s.tile(&schedule.tile);
            }
            if !schedule.reorder.is_empty() {
                s.reorder(&schedule.reorder);
            }
            if let Some((axis, n)) = schedule.parallel {
                s.parallel(axis, n);
            }
            if let Some(axis) = schedule.spm_axis {
                // Default DMA point: the innermost outer (tile) axis.
                let axis = match (axis, ndim) {
                    ("", 2) => "yo",
                    ("", 3) => "zo",
                    ("", _) => "xo",
                    _ => axis,
                };
                s.cache_read(&input, "buffer_read", BufferScope::Global)
                    .cache_write("buffer_write", BufferScope::Global)
                    .compute_at("buffer_read", axis)
                    .compute_at("buffer_write", axis);
            }
            if schedule.stream {
                s.stream();
            }
            if schedule.time_tile > 1 {
                s.tile_time(schedule.time_tile);
            }
        }
        // An empty `combine` is the builder's default: `t-1` through the
        // first kernel.
        let mut builder = StencilProgram::builder(name)
            .grid(grid)
            .timesteps(timesteps);
        for k in kernels {
            builder = builder.kernel(k);
        }
        builder = builder.combine(
            &terms
                .iter()
                .map(|t| (t.dt, t.weight, t.kernel.as_str()))
                .collect::<Vec<_>>(),
        );
        if let Some(m) = mpi {
            builder = builder.mpi_grid(&m);
        }
        let program = if strict {
            builder.build()?
        } else {
            builder.build_unchecked()?
        };
        Ok(ParsedProgram { program, target })
    }

    // grid := "grid" IDENT ":" type "[" INT,* "]" "halo" INT "window" INT ";"
    fn grid_item(&mut self) -> Result<SpNode> {
        self.expect_keyword("grid")?;
        let name = self.expect_ident()?;
        self.expect_sym(':')?;
        let ty = self.expect_ident()?;
        let dtype = match ty {
            "f32" => DType::F32,
            "f64" => DType::F64,
            "i32" => DType::I32,
            other => {
                return Err(MscError::InvalidConfig(format!(
                    "unknown element type `{other}`"
                )))
            }
        };
        self.expect_sym('[')?;
        let mut shape = vec![self.expect_uint()?];
        while matches!(self.peek(), Tok::Sym(',')) {
            self.next();
            shape.push(self.expect_uint()?);
        }
        self.expect_sym(']')?;
        self.expect_keyword("halo")?;
        let halo = self.expect_uint()?;
        self.expect_keyword("window")?;
        let window = self.expect_uint()?;
        self.expect_sym(';')?;
        SpNode::new(name, dtype, &shape, halo, window)
    }

    // kernel := "kernel" IDENT "=" expr ";"
    fn kernel_item(&mut self, grid: Option<&SpNode>) -> Result<Kernel> {
        self.expect_keyword("kernel")?;
        let name = self.expect_ident()?;
        self.expect_sym('=')?;
        self.budget = ExprBudget::default();
        let expr = self.expr()?;
        self.expect_sym(';')?;
        let ndim = grid
            .map(|g| g.ndim())
            .or_else(|| expr.accesses().first().map(|a| a.offsets.len()))
            .ok_or_else(|| MscError::InvalidConfig("kernel before grid declaration".into()))?;
        Kernel::new(name, ndim, expr)
    }

    /// Charge one node, or one nesting level, of the kernel expression
    /// against its [`ExprBudget`].
    fn charge(&mut self, nesting: bool) -> Result<()> {
        let charged = match nesting {
            true => self.budget.enter(),
            false => self.budget.node(),
        };
        charged.map_err(|why| MscError::InvalidConfig(format!("line {}: {why}", self.line())))
    }

    // expr := term (("+" | "-") term)*
    fn expr(&mut self) -> Result<Expr> {
        let mut e = self.term()?;
        loop {
            match self.peek() {
                Tok::Sym('+') => {
                    self.next();
                    self.charge(false)?;
                    e = e + self.term()?;
                }
                Tok::Sym('-') => {
                    self.next();
                    self.charge(false)?;
                    e = e - self.term()?;
                }
                _ => return Ok(e),
            }
        }
    }

    // term := factor ("*" factor)*
    fn term(&mut self) -> Result<Expr> {
        let mut e = self.factor()?;
        while matches!(self.peek(), Tok::Sym('*')) {
            self.next();
            self.charge(false)?;
            e = e * self.factor()?;
        }
        Ok(e)
    }

    // factor := NUMBER | INT | IDENT "[" off,* "]" | "(" expr ")" | "-" factor
    fn factor(&mut self) -> Result<Expr> {
        self.charge(false)?;
        match self.next() {
            Tok::Num(v) => Ok(Expr::c(v)),
            Tok::Int(v) => Ok(Expr::c(v as f64)),
            Tok::Sym('-') => {
                self.charge(true)?;
                let e = -self.factor()?;
                self.budget.leave();
                Ok(e)
            }
            Tok::Sym('(') => {
                self.charge(true)?;
                let e = self.expr()?;
                self.expect_sym(')')?;
                self.budget.leave();
                Ok(e)
            }
            Tok::Ident(tensor) => {
                self.expect_sym('[')?;
                let mut offs = vec![self.expect_int()?];
                while matches!(self.peek(), Tok::Sym(',')) {
                    self.next();
                    offs.push(self.expect_int()?);
                }
                self.expect_sym(']')?;
                Ok(Expr::at(tensor, &offs))
            }
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected a factor"))
            }
        }
    }

    // combine := "combine" IDENT "[" "t" "]" "=" cterm (("+"|"-") cterm)* ";"
    fn combine_item(&mut self) -> Result<Vec<TimeTerm>> {
        self.expect_keyword("combine")?;
        let _res = self.expect_ident()?;
        self.expect_sym('[')?;
        self.expect_keyword("t")?;
        self.expect_sym(']')?;
        self.expect_sym('=')?;
        let mut terms = Vec::new();
        let mut sign = 1.0;
        // Optional leading sign on the first term.
        if matches!(self.peek(), Tok::Sym('-')) {
            self.next();
            sign = -1.0;
        }
        loop {
            // cterm := (NUMBER "*")? IDENT "[" "t" "-" INT "]"
            let weight = match self.peek() {
                Tok::Num(v) => {
                    self.next();
                    self.expect_sym('*')?;
                    v
                }
                Tok::Int(v) => {
                    self.next();
                    self.expect_sym('*')?;
                    v as f64
                }
                _ => 1.0,
            };
            let kernel = self.expect_ident()?;
            self.expect_sym('[')?;
            self.expect_keyword("t")?;
            self.expect_sym('-')?;
            let dt = self.expect_uint()?;
            self.expect_sym(']')?;
            terms.push(TimeTerm {
                dt,
                weight: sign * weight,
                kernel: kernel.to_string(),
            });
            match self.peek() {
                Tok::Sym('+') => {
                    self.next();
                    sign = 1.0;
                }
                Tok::Sym('-') => {
                    self.next();
                    sign = -1.0;
                }
                Tok::Sym(';') => {
                    self.next();
                    return Ok(terms);
                }
                _ => return Err(self.err("expected `+`, `-`, or `;`")),
            }
        }
    }

    // schedule := "schedule" "{" sitem* "}"
    fn schedule_item(&mut self) -> Result<ScheduleSpec<'a>> {
        self.expect_keyword("schedule")?;
        self.expect_sym('{')?;
        let mut spec = ScheduleSpec::default();
        loop {
            match self.peek() {
                Tok::Sym('}') => {
                    self.next();
                    return Ok(spec);
                }
                Tok::Ident(kw) => {
                    self.next();
                    match kw {
                        "tile" => {
                            while let Tok::Int(_) = self.peek() {
                                spec.tile.push(self.expect_uint()?);
                            }
                            self.expect_sym(';')?;
                        }
                        "reorder" => {
                            while let Tok::Ident(_) = self.peek() {
                                spec.reorder.push(self.expect_ident()?);
                            }
                            self.expect_sym(';')?;
                        }
                        "parallel" => {
                            let axis = self.expect_ident()?;
                            let n = self.expect_uint()?;
                            spec.parallel = Some((axis, n));
                            self.expect_sym(';')?;
                        }
                        "stream" => {
                            spec.stream = true;
                            self.expect_sym(';')?;
                        }
                        "tile_time" => {
                            spec.time_tile = self.expect_uint()?;
                            self.expect_sym(';')?;
                        }
                        "spm" => {
                            let axis = if let Tok::Ident(_) = self.peek() {
                                self.expect_ident()?
                            } else {
                                // Default DMA point: the innermost outer axis.
                                ""
                            };
                            spec.spm_axis = Some(axis);
                            self.expect_sym(';')?;
                        }
                        _ => {
                            return Err(
                                self.err("expected tile/reorder/parallel/spm/stream/tile_time")
                            )
                        }
                    }
                }
                _ => return Err(self.err("expected a schedule item or `}`")),
            }
        }
    }

    fn int_list_item(&mut self, kw: &str) -> Result<Vec<usize>> {
        self.expect_keyword(kw)?;
        let mut v = Vec::new();
        while let Tok::Int(_) = self.peek() {
            v.push(self.expect_uint()?);
        }
        self.expect_sym(';')?;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LISTING1: &str = r#"
        // The paper's Listing 1 in surface syntax.
        stencil 3d7pt {
            grid B: f64[64, 64, 64] halo 1 window 3;
            kernel S = 0.4*B[0,0,0] + 0.1*B[-1,0,0] + 0.1*B[1,0,0]
                     + 0.1*B[0,-1,0] + 0.1*B[0,1,0]
                     + 0.1*B[0,0,-1] + 0.1*B[0,0,1];
            combine res[t] = 0.6*S[t-1] + 0.4*S[t-2];
            schedule { tile 8 8 32; reorder xo yo zo xi yi zi; parallel xo 64; spm zo; }
            mpi 4 4 4;
            run 10;
            target sunway;
        }
    "#;

    #[test]
    fn parses_listing1() {
        let parsed = parse(LISTING1).unwrap();
        let p = &parsed.program;
        assert_eq!(p.name, "3d7pt");
        assert_eq!(p.grid.shape, vec![64, 64, 64]);
        assert_eq!(p.stencil.time_window(), 3);
        assert_eq!(p.stencil.kernels[0].points(), 7);
        assert_eq!(p.mpi_grid, Some(vec![4, 4, 4]));
        assert_eq!(p.timesteps, 10);
        assert_eq!(parsed.target, Some(Target::SunwayCG));
        let sched = &p.stencil.kernels[0].schedule;
        assert_eq!(sched.tile_factors, vec![8, 8, 32]);
        assert_eq!(sched.n_threads(), 64);
        assert!(sched.uses_spm());
        assert_eq!(sched.compute_at[0].axis, "zo");
    }

    #[test]
    fn parsed_kernel_has_unit_coefficient_sum() {
        let parsed = parse(LISTING1).unwrap();
        let taps = parsed.program.stencil.kernels[0].taps().unwrap();
        assert!((taps.map(|(_, c)| c).sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wave_equation_with_two_kernels() {
        let src = r#"
            stencil wave {
                grid B: f64[32, 32] halo 1 window 3;
                kernel lap = 1.6*B[0,0] + 0.1*B[-1,0] + 0.1*B[1,0]
                           + 0.1*B[0,-1] + 0.1*B[0,1];
                kernel id = 1.0*B[0,0];
                combine u[t] = 1.0*lap[t-1] - 1.0*id[t-2];
                run 5;
            }
        "#;
        let parsed = parse(src).unwrap();
        assert_eq!(parsed.program.stencil.kernels.len(), 2);
        assert_eq!(parsed.program.stencil.terms[1].weight, -1.0);
        assert!(parsed.target.is_none());
    }

    #[test]
    fn negative_weights_and_parens() {
        let src = r#"
            stencil s {
                grid B: f32[16, 16] halo 2 window 2;
                kernel k = 2.0 * (B[0,0] - 0.5*B[-2,0]) + (-0.25)*B[2,0];
                run 1;
            }
        "#;
        let parsed = parse(src).unwrap();
        let taps: Vec<_> = parsed.program.stencil.kernels[0].taps().unwrap().collect();
        assert_eq!(taps.len(), 3);
        let t = taps.iter().find(|t| t.0 == [2, 0]).unwrap();
        assert!((t.1 + 0.25).abs() < 1e-12);
        let t = taps.iter().find(|t| t.0 == [-2, 0]).unwrap();
        assert!((t.1 + 1.0).abs() < 1e-12);
    }

    #[test]
    fn default_combine_is_t_minus_1() {
        let src = r#"
            stencil s {
                grid B: f64[8, 8] halo 1 window 2;
                kernel k = 0.5*B[0,0] + 0.5*B[1,0];
            }
        "#;
        let p = parse(src).unwrap().program;
        assert_eq!(p.stencil.terms.len(), 1);
        assert_eq!(p.stencil.terms[0].dt, 1);
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let src = "stencil s {\n  grid B f64[8] halo 1 window 2;\n}";
        let e = parse(src).unwrap_err().to_string();
        assert!(e.contains("line 2"), "{e}");
    }

    /// The lexer's typed errors, verbatim: the line a token is on, and for
    /// a character no token starts with, the character itself — never one
    /// byte of it, never U+FFFD.
    #[test]
    fn lexer_errors_name_the_line_and_the_whole_character() {
        let msg = |src: &str| parse(src).unwrap_err().to_string();
        assert_eq!(
            msg("stencil s {\n  grid B: f64[8] halo 1 window 2;\n  kernel k = 1.0*B[0] § 2;\n}"),
            "invalid configuration: line 3: unexpected character `§`"
        );
        assert_eq!(
            msg("stencil 格 {"),
            "invalid configuration: line 1: unexpected character `格`"
        );
        assert_eq!(
            msg("\n\n\u{1F600}"),
            "invalid configuration: line 3: unexpected character `\u{1F600}`"
        );
        assert_eq!(
            msg("stencil s { a / b }"),
            "invalid configuration: line 1: unexpected character `/`"
        );
        assert_eq!(
            msg("stencil s {\r\n  run 1e;\r\n}"),
            "invalid configuration: line 2: bad number `1e`"
        );
        assert_eq!(
            msg("stencil s { run 99999999999999999999; }"),
            "invalid configuration: line 1: bad integer `99999999999999999999`"
        );
        assert_eq!(
            msg("stencil s {\n\n  run 2.5;\n}"),
            "invalid configuration: line 3: expected a non-negative integer, found number 2.5"
        );
        assert_eq!(
            msg("// one\nstencil 3d7pt // two\n[ }"),
            "invalid configuration: line 3: expected `{`, found `[`"
        );
    }

    /// What the byte lexer must read exactly as the character lexer did.
    #[test]
    fn lexer_keeps_digit_led_names_exponents_comments_crlf_and_unicode_space() {
        assert_eq!(
            lex("3d7pt 2d9pt_box _x1 7 1e-3 1E+3 2.5e2 1-3").unwrap(),
            vec![
                (Tok::Ident("3d7pt"), 1),
                (Tok::Ident("2d9pt_box"), 1),
                (Tok::Ident("_x1"), 1),
                (Tok::Int(7), 1),
                (Tok::Num(1e-3), 1),
                (Tok::Num(1e3), 1),
                (Tok::Num(250.0), 1),
                (Tok::Int(1), 1),
                (Tok::Sym('-'), 1),
                (Tok::Int(3), 1),
                (Tok::Eof, 1),
            ]
        );
        // `//` to the end of the line, CRLF, tab / vertical tab / form feed
        // and non-ASCII white space (no-break, ideographic) between tokens.
        assert_eq!(
            lex("a // b ; § c\r\nd\t;\u{b}\u{c}\u{a0}e\u{3000}// trailing").unwrap(),
            vec![
                (Tok::Ident("a"), 1),
                (Tok::Ident("d"), 2),
                (Tok::Sym(';'), 2),
                (Tok::Ident("e"), 2),
                (Tok::Eof, 2),
            ]
        );
        let crlf = LISTING1.replace('\n', "\r\n");
        assert_eq!(
            parse(&crlf).unwrap().program,
            parse(LISTING1).unwrap().program
        );
    }

    #[test]
    fn rejects_missing_grid() {
        let src = "stencil s { kernel k = 1.0*B[0]; run 1; }";
        // kernel-before-grid infers ndim from the access; build then
        // fails on the missing grid.
        assert!(parse(src).is_err());
    }

    #[test]
    fn rejects_unknown_target_and_type() {
        let bad_target = r#"
            stencil s { grid B: f64[8] halo 1 window 2;
                kernel k = 1.0*B[0]; target gpu; }
        "#;
        assert!(parse(bad_target).is_err());
        let bad_type = "stencil s { grid B: f16[8] halo 1 window 2; }";
        assert!(parse(bad_type).is_err());
    }

    #[test]
    fn rejects_halo_smaller_than_reach() {
        let src = r#"
            stencil s {
                grid B: f64[16, 16] halo 1 window 2;
                kernel k = 0.5*B[0,0] + 0.5*B[2,0];
            }
        "#;
        assert!(matches!(parse(src), Err(MscError::HaloTooSmall { .. })));
    }

    #[test]
    fn comments_and_whitespace_are_ignored() {
        let src = "// header\nstencil s { // inline\n grid B: f64[8] halo 1 window 2;\n kernel k = 1.0*B[0]; }";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn parsed_program_executes_like_builder_program() {
        // The surface syntax and the builder API must produce identical
        // programs.
        let parsed = parse(LISTING1).unwrap().program;
        let built = crate::catalog::benchmark(crate::catalog::BenchmarkId::S3d7ptStar);
        let k = built.kernel();
        // Same shape class: 7 taps, reach 1.
        assert_eq!(parsed.stencil.kernels[0].points(), k.points());
        assert_eq!(parsed.stencil.reach(), vec![1, 1, 1]);
    }

    #[test]
    fn pretty_printer_round_trips() {
        // parse -> print -> parse must preserve semantics exactly.
        let a = parse(LISTING1).unwrap();
        let text = to_msc_source(&a.program, a.target);
        let b = parse(&text).unwrap();
        assert_eq!(a.program.grid, b.program.grid);
        assert_eq!(a.program.timesteps, b.program.timesteps);
        assert_eq!(a.program.mpi_grid, b.program.mpi_grid);
        assert_eq!(a.target, b.target);
        // Kernels agree tap-for-tap.
        let ta: Vec<_> = a.program.stencil.kernels[0].taps().unwrap().collect();
        let tb: Vec<_> = b.program.stencil.kernels[0].taps().unwrap().collect();
        assert_eq!(ta, tb);
        // Schedules agree.
        assert_eq!(
            a.program.stencil.kernels[0].schedule,
            b.program.stencil.kernels[0].schedule
        );
        // Temporal combination agrees.
        assert_eq!(a.program.stencil.terms, b.program.stencil.terms);
    }

    #[test]
    fn pretty_printer_handles_negative_weights() {
        let src = r#"
            stencil wave {
                grid B: f64[16, 16] halo 1 window 3;
                kernel p = 1.6*B[0,0] + 0.1*B[-1,0] + 0.1*B[1,0]
                         + 0.1*B[0,-1] + 0.1*B[0,1];
                kernel id = 1.0*B[0,0];
                combine u[t] = -1.0*id[t-2] + 1.0*p[t-1];
                run 2;
            }
        "#;
        let a = parse(src).unwrap();
        let text = to_msc_source(&a.program, None);
        let b = parse(&text).unwrap();
        assert_eq!(a.program.stencil.terms, b.program.stencil.terms);
    }

    #[test]
    fn pretty_printer_emits_extension_primitives() {
        let src = r#"
            stencil s {
                grid B: f64[64, 64] halo 1 window 2;
                kernel k = 0.5*B[0,0] + 0.5*B[1,0];
                schedule { tile 8 64; reorder xo yo xi yi; parallel xo 8; spm yo; stream; tile_time 3; }
                run 2;
            }
        "#;
        let parsed = parse(src).unwrap();
        let text = to_msc_source(&parsed.program, None);
        assert!(text.contains("stream;"));
        assert!(text.contains("tile_time 3;"));
        let again = parse(&text).unwrap();
        assert_eq!(
            parsed.program.stencil.kernels[0].schedule,
            again.program.stencil.kernels[0].schedule
        );
    }

    #[test]
    fn scientific_notation_coefficients() {
        let src = r#"
            stencil s { grid B: f64[8] halo 1 window 2;
                kernel k = 2.5e-1*B[0] + 7.5e-1*B[1]; }
        "#;
        let p = parse(src).unwrap().program;
        let taps = p.stencil.kernels[0].taps().unwrap();
        assert!((taps.map(|(_, c)| c).sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
