//! Recursive-descent parser for the supported C subset (pass 1 of the
//! lift pipeline, DESIGN.md §16.1).
//!
//! The accepted shape is a restricted Jacobi-style kernel:
//!
//! ```text
//! file   := decl* ( func | nest )
//! decl   := "double" IDENT ("[" INT "]")+ ";"
//! func   := "void" IDENT "(" params? ")" "{" nest "}"
//! params := "void" | decl-param ("," decl-param)*
//! nest   := "for" "(" "int"? IDENT "=" INT ";" IDENT ("<"|"<=") INT ";" inc ")" body
//! body   := "{" (nest | store) "}" | nest | store
//! store  := IDENT ("[" iexpr "]")+ "=" expr ";"
//! expr   := term (("+"|"-") term)*
//! term   := factor ("*" factor)*
//! factor := NUMBER | "-" factor | "(" expr ")" | IDENT ("[" iexpr "]")+
//! ```
//!
//! The statement is held to the caps the `.msc` parser keeps too
//! ([`ExprBudget`]): at most [`MAX_EXPR_NODES`] nodes, value and index
//! expressions together, and at most [`MAX_EXPR_DEPTH`] levels of
//! parentheses, brackets and unary minus. Beyond either the parser
//! returns `MSC-L507` instead of risking a stack overflow on hostile
//! input in itself or in any later pass.
//!
//! [`MAX_EXPR_NODES`]: msc_core::expr::MAX_EXPR_NODES
//! [`MAX_EXPR_DEPTH`]: msc_core::expr::MAX_EXPR_DEPTH

use crate::lex::{lex, Span, Tok, Token};
use crate::LiftError;
use msc_core::expr::ExprBudget;
use msc_lint::LintCode;

/// `double NAME[e0][e1]...;` — a global array declaration (or a
/// function parameter of the same shape).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDecl {
    pub name: String,
    pub extents: Vec<usize>,
    pub span: Span,
}

/// One `for` loop of the nest, already reduced to constant bounds:
/// `for (int var = lo; var < hi; var++)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ForLoop {
    pub var: String,
    pub lo: i64,
    pub hi: i64,
    pub span: Span,
}

/// An array access with raw (not yet affine-normalized) index
/// expressions: `NAME[i-1][j]`.
#[derive(Debug, Clone, PartialEq)]
pub struct RawAccess {
    pub array: String,
    pub indices: Vec<IExpr>,
    pub span: Span,
}

/// Integer index expression (subscript arithmetic).
#[derive(Debug, Clone, PartialEq)]
pub enum IExpr {
    Num(i64),
    Var(String, Span),
    Add(Box<IExpr>, Box<IExpr>),
    Sub(Box<IExpr>, Box<IExpr>),
    Mul(Box<IExpr>, Box<IExpr>),
    Neg(Box<IExpr>),
}

/// Value expression on the right-hand side of the store.
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
    Num(f64),
    Access(RawAccess),
    Add(Box<CExpr>, Box<CExpr>),
    Sub(Box<CExpr>, Box<CExpr>),
    Mul(Box<CExpr>, Box<CExpr>),
    Neg(Box<CExpr>),
}

/// The single assignment in the innermost loop body.
#[derive(Debug, Clone, PartialEq)]
pub struct Store {
    pub target: RawAccess,
    pub rhs: CExpr,
    pub span: Span,
}

/// A fully parsed input file: declarations, the loop nest, and the one
/// store statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CFile {
    /// Function name when the nest is wrapped in `void name(...) {}`.
    pub name: Option<String>,
    pub decls: Vec<ArrayDecl>,
    pub loops: Vec<ForLoop>,
    pub store: Store,
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    budget: ExprBudget,
}

type PResult<T> = Result<T, LiftError>;

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn span(&self) -> Span {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|t| t.span)
            .unwrap_or(Span { line: 1, col: 1 })
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, code: LintCode, msg: impl Into<String>, help: &str) -> LiftError {
        LiftError::new(code, msg.into(), format!("{}", self.span()), help.into())
    }

    fn syntax(&self, msg: impl Into<String>) -> LiftError {
        self.err(LintCode::LiftSyntaxError, msg, "")
    }

    fn expect(&mut self, want: &Tok) -> PResult<Span> {
        match self.bump() {
            Some(t) if &t.tok == want => Ok(t.span),
            Some(t) => Err(LiftError::new(
                LintCode::LiftSyntaxError,
                format!("expected {}, found {}", want.describe(), t.tok.describe()),
                format!("{}", t.span),
                String::new(),
            )),
            None => Err(self.syntax(format!("expected {}, found end of input", want.describe()))),
        }
    }

    fn expect_ident(&mut self, what: &str) -> PResult<(String, Span)> {
        match self.bump() {
            Some(Token {
                tok: Tok::Ident(s),
                span,
            }) => Ok((s, span)),
            Some(t) => Err(LiftError::new(
                LintCode::LiftSyntaxError,
                format!("expected {what}, found {}", t.tok.describe()),
                format!("{}", t.span),
                String::new(),
            )),
            None => Err(self.syntax(format!("expected {what}, found end of input"))),
        }
    }

    /// A possibly negated integer literal.
    fn expect_int(&mut self, what: &str) -> PResult<i64> {
        let neg = if self.peek() == Some(&Tok::Minus) {
            self.bump();
            true
        } else {
            false
        };
        match self.bump() {
            Some(Token {
                tok: Tok::Int(v), ..
            }) => Ok(if neg { -v } else { v }),
            Some(t) => Err(LiftError::new(
                LintCode::LiftUnsupportedLoop,
                format!(
                    "{what} must be an integer literal, found {}",
                    t.tok.describe()
                ),
                format!("{}", t.span),
                "the subset has no macros or symbolic bounds; spell the bound \
                 out as a number"
                    .into(),
            )),
            None => Err(self.syntax(format!("expected {what}, found end of input"))),
        }
    }

    /// Charge one node, or one nesting level, against the statement's
    /// [`ExprBudget`].
    fn charge(&mut self, nesting: bool) -> PResult<()> {
        let charged = match nesting {
            true => self.budget.enter(),
            false => self.budget.node(),
        };
        charged.map_err(|why| {
            self.err(
                LintCode::LiftNestTooDeep,
                why,
                "flatten or split the expression; a stencil kernel needs \
                 neither deep nesting nor thousands of terms",
            )
        })
    }

    // ---- declarations -------------------------------------------------

    /// `double NAME [n]+` (shared by globals and parameters). The caller
    /// consumes the trailing `;` or `,`.
    fn decl_body(&mut self) -> PResult<ArrayDecl> {
        let (name, span) = self.expect_ident("array name")?;
        let mut extents = Vec::new();
        while self.peek() == Some(&Tok::LBracket) {
            self.bump();
            let n = self.expect_int("array extent")?;
            if n <= 0 {
                return Err(self.err(
                    LintCode::LiftShapeMismatch,
                    format!("array `{name}` has non-positive extent {n}"),
                    "",
                ));
            }
            extents.push(n as usize);
            self.expect(&Tok::RBracket)?;
        }
        if extents.is_empty() {
            return Err(self.err(
                LintCode::LiftUnsupportedConstruct,
                format!("scalar variable `{name}` is not in the subset (arrays only)"),
                "",
            ));
        }
        Ok(ArrayDecl {
            name,
            extents,
            span,
        })
    }

    // ---- loop nest ----------------------------------------------------

    fn for_header(&mut self) -> PResult<ForLoop> {
        let span = self.expect(&Tok::Ident("for".into()))?;
        self.expect(&Tok::LParen)?;
        if self.peek() == Some(&Tok::Ident("int".into())) {
            self.bump();
        }
        let (var, _) = self.expect_ident("loop variable")?;
        self.expect(&Tok::Assign)?;
        let lo = self.expect_int("loop lower bound")?;
        self.expect(&Tok::Semi)?;
        let (cond_var, cond_span) = self.expect_ident("loop condition variable")?;
        if cond_var != var {
            return Err(LiftError::new(
                LintCode::LiftUnsupportedLoop,
                format!("loop condition tests `{cond_var}` but the loop declares `{var}`"),
                format!("{cond_span}"),
                String::new(),
            ));
        }
        let le = match self.bump() {
            Some(Token { tok: Tok::Lt, .. }) => false,
            Some(Token { tok: Tok::Le, .. }) => true,
            Some(t) => {
                return Err(LiftError::new(
                    LintCode::LiftUnsupportedLoop,
                    format!(
                        "loop condition must use `<` or `<=`, found {}",
                        t.tok.describe()
                    ),
                    format!("{}", t.span),
                    String::new(),
                ))
            }
            None => return Err(self.syntax("expected loop condition, found end of input")),
        };
        let bound = self.expect_int("loop upper bound")?;
        let hi = if le { bound + 1 } else { bound };
        self.expect(&Tok::Semi)?;
        // Increment: `var++` | `++var` | `var += 1` | `var = var + 1`.
        let ok = match self.bump() {
            Some(Token {
                tok: Tok::Ident(v), ..
            }) if v == var => match self.bump().map(|t| t.tok) {
                Some(Tok::PlusPlus) => true,
                Some(Tok::PlusAssign) => matches!(self.bump().map(|t| t.tok), Some(Tok::Int(1))),
                Some(Tok::Assign) => {
                    matches!(self.bump().map(|t| t.tok), Some(Tok::Ident(v2)) if v2 == var)
                        && self.bump().map(|t| t.tok) == Some(Tok::Plus)
                        && self.bump().map(|t| t.tok) == Some(Tok::Int(1))
                }
                _ => false,
            },
            Some(Token {
                tok: Tok::PlusPlus, ..
            }) => matches!(self.bump().map(|t| t.tok), Some(Tok::Ident(v)) if v == var),
            _ => false,
        };
        if !ok {
            return Err(self.err(
                LintCode::LiftUnsupportedLoop,
                format!("loop over `{var}` must step by exactly 1 (`{var}++`)"),
                "non-unit strides cannot be summarized as a dense stencil sweep",
            ));
        }
        self.expect(&Tok::RParen)?;
        Ok(ForLoop { var, lo, hi, span })
    }

    /// Parse the nest: one or more `for` loops around a single store.
    fn nest(&mut self, loops: &mut Vec<ForLoop>) -> PResult<Store> {
        loops.push(self.for_header()?);
        let braced = self.peek() == Some(&Tok::LBrace);
        if braced {
            self.bump();
        }
        let store = if self.peek() == Some(&Tok::Ident("for".into())) {
            self.nest(loops)?
        } else {
            let s = self.store()?;
            if braced && self.peek() != Some(&Tok::RBrace) {
                return Err(self.err(
                    LintCode::LiftUnsupportedConstruct,
                    "loop body holds more than the single supported assignment",
                    "a liftable nest updates exactly one array point per iteration",
                ));
            }
            s
        };
        if braced {
            self.expect(&Tok::RBrace)?;
        }
        Ok(store)
    }

    fn store(&mut self) -> PResult<Store> {
        let target = self.access()?;
        let span = target.span;
        if target.indices.is_empty() {
            return Err(self.err(
                LintCode::LiftUnsupportedConstruct,
                format!("store to scalar `{}` is not a stencil update", target.array),
                "",
            ));
        }
        match self.bump() {
            Some(Token {
                tok: Tok::Assign, ..
            }) => {}
            Some(t) => {
                return Err(LiftError::new(
                    LintCode::LiftUnsupportedConstruct,
                    format!(
                        "only plain `=` assignment is supported, found {}",
                        t.tok.describe()
                    ),
                    format!("{}", t.span),
                    String::new(),
                ))
            }
            None => return Err(self.syntax("expected `=`, found end of input")),
        }
        let rhs = self.expr()?;
        self.expect(&Tok::Semi)?;
        Ok(Store { target, rhs, span })
    }

    // ---- expressions --------------------------------------------------

    fn access(&mut self) -> PResult<RawAccess> {
        let (array, span) = self.expect_ident("array name")?;
        let mut indices = Vec::new();
        while self.peek() == Some(&Tok::LBracket) {
            self.charge(true)?;
            self.bump();
            let ix = self.iexpr()?;
            self.expect(&Tok::RBracket)?;
            self.budget.leave();
            indices.push(ix);
        }
        Ok(RawAccess {
            array,
            indices,
            span,
        })
    }

    fn expr(&mut self) -> PResult<CExpr> {
        let mut lhs = self.term()?;
        loop {
            match self.peek() {
                Some(Tok::Plus) => {
                    self.bump();
                    self.charge(false)?;
                    lhs = CExpr::Add(Box::new(lhs), Box::new(self.term()?));
                }
                Some(Tok::Minus) => {
                    self.bump();
                    self.charge(false)?;
                    lhs = CExpr::Sub(Box::new(lhs), Box::new(self.term()?));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn term(&mut self) -> PResult<CExpr> {
        let mut lhs = self.factor()?;
        while self.peek() == Some(&Tok::Star) {
            self.bump();
            self.charge(false)?;
            lhs = CExpr::Mul(Box::new(lhs), Box::new(self.factor()?));
        }
        Ok(lhs)
    }

    fn factor(&mut self) -> PResult<CExpr> {
        self.charge(false)?;
        match self.peek() {
            Some(Tok::Float(_)) | Some(Tok::Int(_)) => {
                let t = self.bump().expect("peeked");
                Ok(match t.tok {
                    Tok::Float(v) => CExpr::Num(v),
                    Tok::Int(v) => CExpr::Num(v as f64),
                    _ => unreachable!(),
                })
            }
            Some(Tok::Minus) => {
                self.bump();
                self.charge(true)?;
                let e = CExpr::Neg(Box::new(self.factor()?));
                self.budget.leave();
                Ok(e)
            }
            Some(Tok::LParen) => {
                self.charge(true)?;
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                self.budget.leave();
                Ok(e)
            }
            Some(Tok::Ident(_)) => Ok(CExpr::Access(self.access()?)),
            Some(t) => Err(self.syntax(format!("expected an expression, found {}", t.describe()))),
            None => Err(self.syntax("expected an expression, found end of input")),
        }
    }

    fn iexpr(&mut self) -> PResult<IExpr> {
        let mut lhs = self.iterm()?;
        loop {
            match self.peek() {
                Some(Tok::Plus) => {
                    self.bump();
                    self.charge(false)?;
                    lhs = IExpr::Add(Box::new(lhs), Box::new(self.iterm()?));
                }
                Some(Tok::Minus) => {
                    self.bump();
                    self.charge(false)?;
                    lhs = IExpr::Sub(Box::new(lhs), Box::new(self.iterm()?));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn iterm(&mut self) -> PResult<IExpr> {
        let mut lhs = self.ifactor()?;
        while self.peek() == Some(&Tok::Star) {
            self.bump();
            self.charge(false)?;
            lhs = IExpr::Mul(Box::new(lhs), Box::new(self.ifactor()?));
        }
        Ok(lhs)
    }

    fn ifactor(&mut self) -> PResult<IExpr> {
        self.charge(false)?;
        match self.bump() {
            Some(Token {
                tok: Tok::Int(v), ..
            }) => Ok(IExpr::Num(v)),
            Some(Token {
                tok: Tok::Ident(s),
                span,
            }) => Ok(IExpr::Var(s, span)),
            Some(Token {
                tok: Tok::Minus, ..
            }) => {
                self.charge(true)?;
                let e = IExpr::Neg(Box::new(self.ifactor()?));
                self.budget.leave();
                Ok(e)
            }
            Some(Token {
                tok: Tok::LParen, ..
            }) => {
                self.charge(true)?;
                let e = self.iexpr()?;
                self.expect(&Tok::RParen)?;
                self.budget.leave();
                Ok(e)
            }
            Some(t) => Err(LiftError::new(
                LintCode::LiftSyntaxError,
                format!("expected an index expression, found {}", t.tok.describe()),
                format!("{}", t.span),
                String::new(),
            )),
            None => Err(self.syntax("expected an index expression, found end of input")),
        }
    }

    // ---- file ---------------------------------------------------------

    fn file(&mut self) -> PResult<CFile> {
        let mut decls = Vec::new();
        let mut name = None;
        loop {
            match self.peek() {
                Some(Tok::Ident(s)) if s == "double" => {
                    self.bump();
                    decls.push(self.decl_body()?);
                    self.expect(&Tok::Semi)?;
                }
                Some(Tok::Ident(s)) if s == "void" => {
                    self.bump();
                    let (fname, _) = self.expect_ident("function name")?;
                    name = Some(fname);
                    self.expect(&Tok::LParen)?;
                    // Parameter list: empty, `void`, or array parameters.
                    if self.peek() == Some(&Tok::Ident("void".into())) {
                        self.bump();
                    }
                    while self.peek() != Some(&Tok::RParen) {
                        self.expect(&Tok::Ident("double".into()))?;
                        decls.push(self.decl_body()?);
                        if self.peek() == Some(&Tok::Comma) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.expect(&Tok::RParen)?;
                    self.expect(&Tok::LBrace)?;
                    let mut loops = Vec::new();
                    let store = self.nest(&mut loops)?;
                    self.expect(&Tok::RBrace)?;
                    if self.pos != self.toks.len() {
                        return Err(self.err(
                            LintCode::LiftUnsupportedConstruct,
                            "only a single kernel function per file is supported",
                            "",
                        ));
                    }
                    return Ok(CFile {
                        name,
                        decls,
                        loops,
                        store,
                    });
                }
                Some(Tok::Ident(s)) if s == "for" => {
                    let mut loops = Vec::new();
                    let store = self.nest(&mut loops)?;
                    if self.pos != self.toks.len() {
                        return Err(self.err(
                            LintCode::LiftUnsupportedConstruct,
                            "trailing input after the loop nest",
                            "",
                        ));
                    }
                    return Ok(CFile {
                        name,
                        decls,
                        loops,
                        store,
                    });
                }
                Some(t) => {
                    let d = t.describe();
                    return Err(self.syntax(format!(
                        "expected a declaration, function, or `for` nest, found {d}"
                    )));
                }
                None => {
                    return Err(self.syntax(
                        "no loop nest found (the file must contain a `for` nest or a \
                         `void` kernel function)",
                    ))
                }
            }
        }
    }
}

/// Parse the supported C subset; never panics on any input.
pub fn parse(src: &str) -> Result<CFile, LiftError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        budget: ExprBudget::default(),
    };
    p.file()
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_core::expr::MAX_EXPR_DEPTH;

    const JACOBI: &str = "
        double A[10][10];
        double B[10][10];
        void sweep() {
          for (int i = 1; i < 9; i++)
            for (int j = 1; j < 9; j++)
              B[i][j] = 0.25*A[i-1][j] + 0.5*A[i][j] + 0.25*A[i+1][j];
        }";

    #[test]
    fn parses_a_wrapped_jacobi_nest() {
        let f = parse(JACOBI).unwrap();
        assert_eq!(f.name.as_deref(), Some("sweep"));
        assert_eq!(f.decls.len(), 2);
        assert_eq!(f.loops.len(), 2);
        assert_eq!(f.loops[0].var, "i");
        assert_eq!(f.loops[0].lo, 1);
        assert_eq!(f.loops[0].hi, 9);
        assert_eq!(f.store.target.array, "B");
    }

    #[test]
    fn parses_params_bare_nests_and_le_bounds() {
        let f = parse(
            "void k(double A[8], double B[8]) {
               for (int i = 1; i <= 6; i++) { B[i] = 1.0*A[i]; }
             }",
        )
        .unwrap();
        assert_eq!(f.decls.len(), 2);
        assert_eq!(f.loops[0].hi, 7, "<= bound is inclusive");

        let bare = parse("for (i = 0; i < 4; ++i) A[i] = 2*A[i];").unwrap();
        assert!(bare.name.is_none());
        assert!(bare.decls.is_empty());
    }

    #[test]
    fn rejects_multi_statement_bodies_and_bad_steps() {
        let two = "for (int i = 1; i < 9; i++) { A[i] = A[i]; A[i] = A[i]; }";
        assert_eq!(
            parse(two).unwrap_err().code,
            LintCode::LiftUnsupportedConstruct
        );
        let stride = "for (int i = 1; i < 9; i += 2) A[i] = A[i];";
        assert_eq!(
            parse(stride).unwrap_err().code,
            LintCode::LiftUnsupportedLoop
        );
        let sym = "for (int i = 1; i < N; i++) A[i] = A[i];";
        assert_eq!(parse(sym).unwrap_err().code, LintCode::LiftUnsupportedLoop);
    }

    #[test]
    fn caps_paren_nesting_with_l507() {
        let deep = format!(
            "for (int i = 1; i < 9; i++) A[i] = {}1.0{};",
            "(".repeat(MAX_EXPR_DEPTH + 1),
            ")".repeat(MAX_EXPR_DEPTH + 1)
        );
        assert_eq!(parse(&deep).unwrap_err().code, LintCode::LiftNestTooDeep);
        // One level under the cap parses fine.
        let ok = format!(
            "for (int i = 1; i < 9; i++) A[i] = {}1.0{}*A[i];",
            "(".repeat(MAX_EXPR_DEPTH - 2),
            ")".repeat(MAX_EXPR_DEPTH - 2)
        );
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn syntax_errors_carry_positions() {
        let err = parse("double A[4];\nfor (int i = 1; i < 3; i++) A[i] = ;").unwrap_err();
        assert_eq!(err.code, LintCode::LiftSyntaxError);
        assert!(err.context.contains("line 2"), "{}", err.context);
    }
}
